#include "client.h"

#include <poll.h>
#include <pthread.h>
#include <sched.h>

#include <deque>
#include <thread>

#include "checks.h"

namespace perfbench {

void ReplyLog::Note(const std::string& failure) {
  if (!failure.empty() && failure_.empty()) failure_ = failure;
}

void ReplyLog::Add(Node source, prsim::net::WireResponse&& reply) {
  ++replies_;
  if (reply.status_code != 0) ++failed_;
  Note(CheckReply(reply, source, k_));
  // try_emplace leaves reply.scores alone when the source is already held.
  const auto [it, inserted] = first_.try_emplace(source, std::move(reply.scores));
  if (!inserted) Note(CheckIdentical(reply.scores, it->second));
}

void ReplyLog::Merge(ReplyLog&& other) {
  replies_ += other.replies_;
  failed_ += other.failed_;
  Note(other.failure_);
  for (auto& [source, scores] : other.first_) {
    const auto [it, inserted] = first_.try_emplace(source, std::move(scores));
    if (!inserted) Note(CheckIdentical(scores, it->second));
  }
}

std::unique_ptr<Connection> Connection::Open(uint16_t port,
                                             std::string* error) {
  auto fd = prsim::ConnectTcp(port);
  if (!fd.ok()) {
    *error = fd.status().ToString();
    return nullptr;
  }
  std::unique_ptr<Connection> connection(
      new Connection(std::move(fd).ValueOrDie()));
  const prsim::Status magic =
      prsim::WriteAll(connection->fd_.get(), prsim::net::kBinaryMagic,
                      sizeof(prsim::net::kBinaryMagic));
  if (!magic.ok()) {
    *error = "sending the PRSB magic: " + magic.ToString();
    return nullptr;
  }
  return connection;
}

bool Connection::Send(RequestTiming* timing, Node source, uint32_t k,
                      std::string* error) {
  prsim::net::WireRequest request;
  request.source = source;
  request.k = k;
  request.fresh_seed = true;
  request.seed_position = timing->id;
  prsim::net::EncodeRequest(request, &buffer_);
  timing->sent = Clock::now();
  const prsim::Status status = prsim::net::WriteFrame(fd_.get(), buffer_);
  if (!status.ok()) *error = "send: " + status.ToString();
  return status.ok();
}

bool Connection::Receive(RequestTiming* timing, Node source, ReplyLog* log,
                         std::string* error) {
  bool eof = false;
  prsim::Status status = prsim::net::ReadFrame(fd_.get(), &buffer_, &eof);
  if (status.ok() && eof) status = prsim::Status::IOError("server closed");
  if (!status.ok()) {
    *error = "receive: " + status.ToString();
    return false;
  }
  auto reply = prsim::net::DecodeResponse(buffer_);
  timing->done = Clock::now();
  if (!reply.ok()) {
    *error = "decode: " + reply.status().ToString();
    return false;
  }
  log->Add(source, std::move(reply).ValueOrDie());
  return true;
}

bool Connection::Readable(int64_t timeout_us) const {
  pollfd entry = {fd_.get(), POLLIN, 0};
  if (timeout_us < 0) return ::ppoll(&entry, 1, nullptr, nullptr) > 0;
  const timespec timeout = {static_cast<time_t>(timeout_us / 1000000),
                            static_cast<long>(timeout_us % 1000000) * 1000};
  return ::ppoll(&entry, 1, &timeout, nullptr) > 0;
}

namespace {

/// What one connection's thread leaves behind.
struct ConnectionOutcome {
  explicit ConnectionOutcome(uint32_t k) : log(k) {}
  ReplyLog log;
  std::vector<RequestTiming> timings;
  uint64_t in_window = 0;
  std::string error;
};

/// The CPU the generator's threads are pinned to: the last one the process
/// may run on, or -1 when it may run on only one. Left to the scheduler,
/// the generator's threads and the server's session threads fell into
/// placements that held serve-hot's closed loop at half its throughput for
/// a whole run (perfbench/README.md, "Noise").
int GeneratorCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return -1;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  return last;
}

/// Runs fn(c, &outcome) on one thread per connection, all pinned to
/// GeneratorCpu(), then gathers the outcomes: replies into `log`, timings
/// into `timings` (when given).
template <typename Fn>
bool RunPerConnection(size_t connections, uint32_t k, Fn&& fn, ReplyLog* log,
                      uint64_t* in_window, std::vector<RequestTiming>* timings,
                      std::string* error) {
  std::vector<ConnectionOutcome> outcomes(connections, ConnectionOutcome(k));
  const int cpu = GeneratorCpu();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      }
      fn(c, &outcomes[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (ConnectionOutcome& outcome : outcomes) {
    if (!outcome.error.empty()) {
      *error = outcome.error;
      return false;
    }
    log->Merge(std::move(outcome.log));
    if (in_window != nullptr) *in_window += outcome.in_window;
    if (timings != nullptr) {
      timings->insert(timings->end(), outcome.timings.begin(),
                      outcome.timings.end());
    }
  }
  return true;
}

}  // namespace

bool RunClosedLoop(Connections& connections, const ZipfSampler& sampler,
                   uint64_t seed, size_t window, double seconds, uint32_t k,
                   uint64_t id_base, ReplyLog* log, uint64_t* in_window,
                   std::vector<RequestTiming>* timings, std::string* error) {
  const size_t count = connections.size();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  const auto run = [&](size_t c, ConnectionOutcome* out) {
    struct Pending {
      RequestTiming timing;
      Node source;
    };
    Connection& connection = *connections[c];
    Rng rng(StreamSeed(seed, c));
    std::deque<Pending> in_flight;
    uint64_t sent = 0;
    const auto send_one = [&] {
      Pending pending;
      pending.timing.id = id_base + sent++ * count + c;
      pending.source = sampler.Sample(rng);
      if (!connection.Send(&pending.timing, pending.source, k, &out->error)) {
        return false;
      }
      pending.timing.due = pending.timing.sent;
      in_flight.push_back(pending);
      return true;
    };
    for (size_t i = 0; i < window; ++i) {
      if (!send_one()) return;
    }
    while (!in_flight.empty()) {
      Pending& head = in_flight.front();
      if (!connection.Receive(&head.timing, head.source, &out->log, &out->error)) {
        return;
      }
      if (head.timing.done < deadline) ++out->in_window;
      if (timings != nullptr) out->timings.push_back(head.timing);
      in_flight.pop_front();
      if (Clock::now() < deadline && !send_one()) return;
    }
  };
  return RunPerConnection(count, k, run, log, in_window, timings, error);
}

bool RunOpenLoop(Connections& connections, const std::vector<Node>& sources,
                 const std::vector<double>& due_offsets, uint32_t k,
                 uint64_t id_base, ReplyLog* log,
                 std::vector<RequestTiming>* timings, std::string* error) {
  const size_t count = connections.size();
  const Clock::time_point start = Clock::now();
  const auto run = [&](size_t c, ConnectionOutcome* out) {
    Connection& connection = *connections[c];
    std::vector<RequestTiming>& mine = out->timings;
    for (size_t i = c; i < sources.size(); i += count) {
      RequestTiming timing;
      timing.id = id_base + i;
      timing.due = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(due_offsets[i]));
      mine.push_back(timing);
    }
    // Request j of this connection is sources[c + j * count].
    size_t next_send = 0;
    size_t next_reply = 0;
    while (next_reply < mine.size()) {
      const Clock::time_point now = Clock::now();
      if (next_send < mine.size() && mine[next_send].due <= now) {
        if (!connection.Send(&mine[next_send], sources[c + next_send * count],
                             k, &out->error)) {
          return;
        }
        ++next_send;
        continue;
      }
      if (next_reply == next_send) {
        std::this_thread::sleep_until(mine[next_send].due);
        continue;
      }
      const int64_t wait_us =
          next_send < mine.size()
              ? std::chrono::duration_cast<std::chrono::microseconds>(
                    mine[next_send].due - now)
                    .count()
              : -1;
      if (connection.Readable(wait_us)) {
        if (!connection.Receive(&mine[next_reply],
                                sources[c + next_reply * count], &out->log,
                                &out->error)) {
          return;
        }
        ++next_reply;
      }
    }
  };
  return RunPerConnection(count, k, run, log, nullptr, timings, error);
}

}  // namespace perfbench
