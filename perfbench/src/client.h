// The load generator: PRSB binary-framed connections to an in-process
// net::TcpServer, driven closed-loop (a fixed number of requests in
// flight) or open-loop (requests sent on a Poisson schedule whatever the
// replies do). One thread per connection both sends and receives, and all
// of them run on the last CPU the process may use, so the generator adds
// at most one thread per connection to the machine and always loads the
// same CPU.
//
// Every reply is checked as it arrives, and only the first reply of each
// source is kept (ReplyLog), so the generator's memory does not grow with
// the number of requests served and peak RSS stays the program's.
//
// Every request asks for the top-k of a fresh-seed answer. The request id
// travels in the wire request's seed_position field, which fresh-seed
// requests ignore (core/query_service.h), so the server-side submit hook
// can tie its span to the client's.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/single_source.h"
#include "inputs.h"
#include "net/frame.h"
#include "trace.h"
#include "util/socket.h"

namespace perfbench {

/// What the generator keeps of one request: its timing, not its reply.
struct RequestTiming {
  uint64_t id = 0;
  Clock::time_point due;   ///< scheduled send time (open loop) or send time
  Clock::time_point sent;
  Clock::time_point done;  ///< reply decoded
};

/// Checks replies as they arrive. A reply must be OK, answer its source,
/// hold at most k entries sorted as CheckReply demands, and equal the
/// first reply for that source bit for bit: every request asks for the
/// same fresh-seed answer. Keeps that first reply per source.
class ReplyLog {
 public:
  explicit ReplyLog(uint32_t k) : k_(k) {}

  /// Checks one reply to a request for `source`.
  void Add(Node source, prsim::net::WireResponse&& reply);
  /// Takes in another log, checking the sources both logs hold.
  void Merge(ReplyLog&& other);

  uint64_t replies() const { return replies_; }
  /// Replies whose status is not OK.
  uint64_t failed() const { return failed_; }
  /// The first failed check; empty when every reply passed.
  const std::string& failure() const { return failure_; }
  /// The first reply of every source answered.
  const std::unordered_map<Node, prsim::ScoreList>& first() const {
    return first_;
  }

 private:
  void Note(const std::string& failure);

  uint32_t k_;
  uint64_t replies_ = 0;
  uint64_t failed_ = 0;
  std::string failure_;
  std::unordered_map<Node, prsim::ScoreList> first_;
};

class Connection {
 public:
  /// Connects to 127.0.0.1:port and sends the PRSB magic. Null on failure,
  /// with the reason in *error.
  static std::unique_ptr<Connection> Open(uint16_t port, std::string* error);

  /// Sends one top-k fresh-seed request with id timing->id; stamps
  /// timing->sent.
  bool Send(RequestTiming* timing, Node source, uint32_t k, std::string* error);
  /// Reads and decodes the next reply, the answer to a request for
  /// `source`, into `log`; stamps timing->done.
  bool Receive(RequestTiming* timing, Node source, ReplyLog* log,
               std::string* error);
  /// Waits up to timeout_us (forever when negative) for a reply to become
  /// readable. Microseconds, not util/socket.h's WaitFdEvent milliseconds:
  /// the open-loop sender waits here for its next due time.
  bool Readable(int64_t timeout_us) const;

 private:
  explicit Connection(prsim::UniqueFd fd) : fd_(std::move(fd)) {}
  prsim::UniqueFd fd_;
  std::vector<char> buffer_;
};

using Connections = std::vector<std::unique_ptr<Connection>>;

/// Closed loop: each connection keeps `window` requests in flight until
/// `seconds` have passed, then drains. Connection c draws its sources from
/// `sampler` with its own stream of `seed`; its j-th request has id
/// id_base + j * connections + c. Replies go to `log`; *in_window counts
/// those decoded before `seconds` had passed. With `timings`, appends the
/// timing of every request.
bool RunClosedLoop(Connections& connections, const ZipfSampler& sampler,
                   uint64_t seed, size_t window, double seconds, uint32_t k,
                   uint64_t id_base, ReplyLog* log, uint64_t* in_window,
                   std::vector<RequestTiming>* timings, std::string* error);

/// Open loop: request i (id id_base + i) for sources[i] is due at
/// start + due_offsets[i] on connection i % connections; each is sent when
/// due, or as soon after as its connection's thread gets to it, and replies
/// are read as they come. Replies go to `log`; appends the timing of every
/// request to `timings`.
bool RunOpenLoop(Connections& connections, const std::vector<Node>& sources,
                 const std::vector<double>& due_offsets, uint32_t k,
                 uint64_t id_base, ReplyLog* log,
                 std::vector<RequestTiming>* timings, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
