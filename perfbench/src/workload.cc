#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <thread>
#include <unordered_map>

#include "checks.h"
#include "client.h"
#include "core/batch_query.h"
#include "core/engine_registry.h"
#include "core/prsim.h"
#include "core/query_service.h"
#include "graph/io.h"
#include "net/frame.h"
#include "net/tcp_server.h"
#include "oracle.h"
#include "ppr/backward_search.h"
#include "ppr/reverse_pagerank.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using prsim::NodeId;
using prsim::ScoreList;

constexpr double kC = 0.6;  // SimRank decay, the program's default
constexpr uint32_t kTopK = 10;
constexpr size_t kConnections = 2;
/// Closed loop: requests in flight per connection, the same on every
/// workload. Swept over 1-64 on both serve workloads (perfbench/README.md,
/// "In flight"): serve-miss's throughput stops rising at 4, serve-hot's
/// only at 32, where the cache hits no longer wait on round trips.
constexpr size_t kWindow = 32;
constexpr uint64_t kGraphSeed = 1;
/// Interleaved rounds of the measured phases.
constexpr uint64_t kRounds = 30;
/// The run repeats the index path once before the rounds and, when that
/// took less than this, once more in every round, so that build_s is the
/// fast tail of many samples.
constexpr double kRepeatBuildBelowSeconds = 1.0;
/// Sources answered by the index builder (threads=nproc), the cold-loaded
/// engine (threads=nproc-1) and a threads=1 engine.
constexpr size_t kReferenceSources = 3;
/// Probe requests for the first query sources open the served stream, so
/// its head is the same in every run. Without the exact oracle, these
/// sources are the ones checked bit for bit against in-process answers and
/// scored by the Monte Carlo estimator over a pool of each one's top
/// kMcPool.
constexpr size_t kProbeSources = 16;
constexpr size_t kMcPool = 20;
constexpr uint64_t kMcSamples = 100000;
constexpr double kMcDelta = 1e-6;
/// The exact oracle holds an n x n matrix twice: 400 MB at this size.
constexpr Node kExactOracleMaxNodes = 5000;
/// Power iterations of the exact oracle: error bound 0.6^31 < 2e-7.
constexpr int kExactIterations = 30;
/// Codec micro-loop length (traced runs only).
constexpr int kCodecLoops = 20000;

enum Stream : uint64_t {
  kEngineSeedStream = 1,
  kQueryStream,
  kBatchStream,
  kZipfStream,
  kWarmupStream,
  kClosedStream,
  kOpenStream,
  kMcStream,
};

// Request-id bases (ids travel in seed_position).
// The probes, the warm-up, and each round's closed and open loop get
// kRoundIds ids each, so that no two requests share an id.
constexpr uint64_t kRoundIds = 1'000'000;
constexpr uint64_t kProbeIds = 1;
constexpr uint64_t kWarmupIds = kRoundIds;
constexpr uint64_t kClosedIds = 2 * kRoundIds;
constexpr uint64_t kOpenIds = kClosedIds + kRounds * kRoundIds;

/// The source of a freshly loaded engine's first answer: the node with the
/// most in-neighbours (the lowest such id), read off the loaded graph, so
/// that set-up needs none of the benchmark's own inputs.
NodeId FirstSource(const prsim::Graph& graph) {
  NodeId best = 0;
  for (NodeId v = 1; v < graph.n(); ++v) {
    if (graph.InDegree(v) > graph.InDegree(best)) best = v;
  }
  return best;
}

// See WorkloadSpec for the fields.
const WorkloadSpec kWorkloads[] = {
    {.name = "tw-engine", .graph = {60000, 25, 1.35}, .eps = 0.05,
     .query_sources = 100, .query_share = 0.3, .batch_size = 24,
     .batch_share = 0.15, .zipf_s = 0.8, .cache_bytes = 0, .open_rate = 20,
     .warmup_share = 0.05, .closed_share = 0.2, .open_share = 0.25},
    {.name = "serve-miss", .graph = {3000, 10, 2.0}, .eps = 0.1,
     .query_sources = 1200, .query_share = 0.2, .batch_size = 200,
     .batch_share = 0.15, .zipf_s = 0.8, .cache_bytes = 0, .open_rate = 600,
     .warmup_share = 0.05, .closed_share = 0.25, .open_share = 0.33},
    {.name = "serve-hot", .graph = {3000, 10, 2.0}, .eps = 0.1,
     .query_sources = 1200, .query_share = 0.2, .batch_size = 200,
     .batch_share = 0.15, .zipf_s = 1.2, .cache_bytes = size_t{32} << 20,
     .open_rate = 600, .warmup_share = 0.05, .closed_share = 0.25,
     .open_share = 0.33},
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  // Nearest rank.
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

// Interference from other tenants of the machine only ever slows the
// benchmark down, and it comes in spells from under a second to minutes.
// So the samples of one quantity, taken all through the run, are reduced
// to their fast tail: the time that a tenth of them beat, the rate that a
// tenth of them reached. The tail ignores up to nine in ten disturbed
// samples, yet does not hinge on one lucky sample (perfbench/README.md,
// "Noise").
double FastTenth(const std::vector<double>& seconds) {
  return Quantile(seconds, 0.1);
}

double HighTenth(const std::vector<double>& rates) {
  return Quantile(rates, 0.9);
}

void PrintSamples(const char* name, const std::vector<double>& values,
                  const char* separator) {
  std::fprintf(stderr, "\"%s\": [", name);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(stderr, "%s%.6g", i == 0 ? "" : ", ", values[i]);
  }
  std::fprintf(stderr, "]%s", separator);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double value : values) sum += value;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

Clock::duration Seconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

std::string ReadBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

/// FNV-1a over an answer's nodes and score bits (not its padding): lets
/// later rounds be compared with the first without keeping every answer.
uint64_t AnswerHash(const ScoreList& answer) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash = (hash ^ ((word >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (const auto& [node, score] : answer) {
    uint64_t bits = 0;
    std::memcpy(&bits, &score, sizeof(bits));
    mix(node);
    mix(bits);
  }
  return hash;
}

prsim::EngineConfig PRSimConfig(double eps, uint64_t seed, unsigned threads) {
  prsim::EngineConfig config;
  config.SetOrReplace("eps", std::to_string(eps));
  config.SetOrReplace("seed", std::to_string(seed));
  config.SetOrReplace("threads", std::to_string(threads));
  return config;
}

/// Answers the sources on `threads` threads, each with its own clone of
/// `engine` under the engine's own seed: the answer a fresh engine gives.
std::vector<ScoreList> FreshAnswers(const prsim::SingleSourceSimRank& engine,
                                    const std::vector<NodeId>& sources,
                                    unsigned threads) {
  std::vector<ScoreList> answers(sources.size());
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto clone = engine.CloneWithSeed(engine.seed());
      for (size_t i = t; i < sources.size(); i += threads) {
        answers[i] = clone->Query(sources[i]);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return answers;
}

/// Spans of one name, keyed by request id.
std::unordered_map<uint64_t, const Tracer::Span*> SpansByRequest(
    const std::vector<Tracer::Span>& spans, const char* name) {
  std::unordered_map<uint64_t, const Tracer::Span*> by_request;
  for (const Tracer::Span& span : spans) {
    if (span.request_id != 0 && std::strcmp(span.name, name) == 0) {
      by_request[span.request_id] = &span;
    }
  }
  return by_request;
}

/// Keeps the first failed check of a run.
class Verdict {
 public:
  void Expect(const std::string& failure, const std::string& context) {
    if (failure.empty() || !first_.empty()) return;
    first_ = context + ": " + failure;
  }
  bool ok() const { return first_.empty(); }
  const std::string& first() const { return first_; }

 private:
  std::string first_;
};

/// One run of one workload: set-up, the measured rounds, the traced-run
/// extras, the output checks and the report, in that order.
class Run {
 public:
  Run(const WorkloadSpec& spec, const RunOptions& options)
      : spec_(spec),
        options_(options),
        nproc_(std::max(1u, options.threads)),
        query_threads_(std::max(1u, nproc_ - 1)),
        tracer_(options.trace),
        run_dir_(fs::path(options.workdir) /
                 (std::string(spec.name) + "-seed" +
                  std::to_string(options.seed) +
                  (options.trace ? "-trace" : ""))),
        engine_seed_(StreamSeed(options.seed, kEngineSeedStream) >> 1) {}

  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// The index stage: the workload's graph as a text edge list, and the
  /// `prsim_cli index` path from it into the run's directory.
  bool Prepare(std::string* error) {
    std::error_code ec;
    fs::remove_all(run_dir_, ec);
    fs::create_directories(run_dir_, ec);
    bool done = !ec || Fail("cannot create " + run_dir_.string() + ": " + ec.message());
    done = done && GenerateInputs();
    done = done && (WriteFile(PathIn("graph.txt"), EdgeListText(edges_)) ||
                    Fail("cannot write " + PathIn("graph.txt")));
    std::unique_ptr<prsim::SingleSourceSimRank> builder;
    done = done && IndexPath(PathIn("prsim.idx"), PathIn("graph.bin"), 0, &builder);
    if (!done) {
      fs::remove_all(run_dir_, ec);
      *error = error_;
    }
    return done;
  }

  /// The measured run on the index stage's artifacts, which it deletes.
  bool Execute(RunReport* report, std::string* error) {
    const bool done = SetUp() && MeasureRounds() && FinishServing() &&
                      (!options_.trace || TraceExtras(report)) && Check() &&
                      WriteTrace();
    std::error_code ignored;
    fs::remove_all(run_dir_, ignored);
    if (!done) {
      *error = error_;
      return false;
    }
    report->end_to_end = EndToEnd();
    report->attempted = queries_run_ + batch_qps_.size() * spec_.batch_size +
                        reply_log_.replies();
    report->failed = reply_log_.failed();
    report->correct = verdict_.ok();
    report->failure = verdict_.first();
    return true;
  }

 private:
  bool Fail(const std::string& what) {
    error_ = what;
    return false;
  }
  std::string PathIn(const char* file) const {
    return (run_dir_ / file).string();
  }

  /// The workload's inputs, from the benchmark's own generators. The graph
  /// and the query and batch source lists belong to the workload and are
  /// drawn from kGraphSeed; the run seed drives the engine's sampling and
  /// the traffic.
  bool GenerateInputs() {
    edges_ = ChungLuEdges(spec_.graph, kGraphSeed);
    n_ = NodeCount(edges_);
    pool_ = NodesWithInEdges(edges_, n_);
    if (pool_.size() < kProbeSources) return Fail("the generated graph is too small");
    query_sources_ = UniformSources(pool_, spec_.query_sources,
                                    StreamSeed(kGraphSeed, kQueryStream));
    const std::vector<Node> batch =
        UniformSources(pool_, spec_.batch_size, StreamSeed(kGraphSeed, kBatchStream));
    batch_sources_.assign(batch.begin(), batch.end());
    return true;
  }

  /// The `prsim_cli index` path: text edge list to Graph, index build, and
  /// the index and graph artifacts saved. Hands back the building engine.
  bool IndexPath(const std::string& index_out, const std::string& graph_out,
                 uint64_t parent,
                 std::unique_ptr<prsim::SingleSourceSimRank>* builder) {
    ScopedSpan index_span(tracer_, "phase.index", parent);
    ScopedSpan load_span(tracer_, "graph.load_text", index_span.id());
    auto text_graph = prsim::LoadGraphText(PathIn("graph.txt"));
    load_text_s_.push_back(load_span.End());
    if (!text_graph.ok()) return Fail(text_graph.status().ToString());
    built_graph_ =
        std::make_unique<prsim::Graph>(std::move(text_graph).ValueOrDie());
    auto created = prsim::EngineRegistry::Global().Create(
        "prsim", *built_graph_, PRSimConfig(spec_.eps, engine_seed_, nproc_));
    if (!created.ok()) return Fail(created.status().ToString());
    *builder = std::move(created).ValueOrDie();
    ScopedSpan build_span(tracer_, "prsim_index.build", index_span.id());
    prsim::Status status = (*builder)->Preprocess();
    index_build_s_.push_back(build_span.End());
    if (!status.ok()) return Fail(status.ToString());
    ScopedSpan save_span(tracer_, "index_io.save", index_span.id());
    status = (*builder)->SaveIndex(index_out);
    index_save_s_.push_back(save_span.End());
    if (!status.ok()) return Fail(status.ToString());
    ScopedSpan graph_save_span(tracer_, "graph.save_artifact", index_span.id());
    status = prsim::GraphIO::SaveBinary(*built_graph_, graph_out);
    graph_save_s_.push_back(graph_save_span.End());
    if (!status.ok()) return Fail(status.ToString());
    build_s_.push_back(index_span.End());
    return true;
  }

  // ---------------------------------------------------------------- set-up

  /// Set-up, timed as setup_s from the process's start: the index stage's
  /// artifacts loaded into a registry engine and its first answer, then
  /// the server over the same artifacts with the clients connected. The
  /// benchmark's own inputs are generated after it, and the probes open
  /// the served stream.
  bool SetUp() {
    {
      ScopedSpan setup_span(tracer_, "phase.setup");
      if (!ColdStart(setup_span.id()) || !StartServer()) return false;
      setup_s_ = SecondsBetween(options_.process_start, Clock::now());
    }
    if (!GenerateInputs()) return false;
    if (graph_->n() != n_) return Fail("artifact graph has the wrong node count");
    verdict_.Expect(CheckFullAnswer(first_answer_, first_source_, n_, kC, spec_.eps),
                    "first answer");
    return Probe();
  }

  /// Graph and index artifacts into a registry engine, and its first answer.
  bool ColdStart(uint64_t parent) {
    ScopedSpan cold_span(tracer_, "phase.cold_start", parent);
    ScopedSpan graph_span(tracer_, "graph.load_artifact", cold_span.id());
    auto graph = prsim::GraphIO::LoadBinary(PathIn("graph.bin"));
    graph_load_s_ = graph_span.End();
    if (!graph.ok()) return Fail(graph.status().ToString());
    graph_ = std::make_unique<prsim::Graph>(std::move(graph).ValueOrDie());
    ScopedSpan index_span(tracer_, "index_io.load", cold_span.id());
    auto engine = prsim::EngineRegistry::Global().CreateFromIndex(
        "prsim", *graph_, PRSimConfig(spec_.eps, engine_seed_, query_threads_),
        PathIn("prsim.idx"));
    index_load_s_ = index_span.End();
    if (!engine.ok()) return Fail(engine.status().ToString());
    engine_ = std::move(engine).ValueOrDie();
    first_source_ = FirstSource(*graph_);
    ScopedSpan query_span(tracer_, "prsim.first_query", cold_span.id());
    first_answer_ = engine_->Query(first_source_);
    first_query_s_ = query_span.End();
    cold_start_s_ = cold_span.End();
    return true;
  }

  /// The server as `serve --listen --threads nproc-1` builds it, behind a
  /// submit hook that, in traced runs, records when each request entered
  /// the service and how long the service took.
  bool StartServer() {
    prsim::QueryServiceOptions service_options;
    service_options.threads = query_threads_;
    service_options.cache_bytes = spec_.cache_bytes;
    service_ = std::make_unique<prsim::QueryService>(service_options);
    const prsim::Status status = service_->AddEngineFromIndex(
        "prsim", *graph_, PRSimConfig(spec_.eps, engine_seed_, query_threads_),
        PathIn("prsim.idx"));
    if (!status.ok()) return Fail(status.ToString());
    stats_initial_ = service_->Stats();

    prsim::QueryService* service = service_.get();
    Tracer* tracer = &tracer_;
    prsim::net::SubmitFn hook = [service, tracer](prsim::QueryRequest request) {
      if (!tracer->enabled()) return service->Submit(std::move(request));
      const Clock::time_point entry = Clock::now();
      const uint64_t request_id = request.seed_position;
      std::future<prsim::QueryResult> future = service->Submit(std::move(request));
      tracer->Record(tracer->NewId(), "net.submit_hook", entry, Clock::now(), 0,
                     request_id);
      // Runs on the session's responder thread when it collects the result.
      return std::async(std::launch::deferred, [tracer, entry, request_id,
                                                inner = std::move(future)]() mutable {
        prsim::QueryResult result = inner.get();
        tracer->Record(tracer->NewId(), "query_service.request", entry,
                       entry + Seconds(result.latency_seconds), 0, request_id);
        return result;
      });
    };
    prsim::net::TcpServerOptions server_options;
    server_options.node_count = graph_->n();
    server_options.default_k = kTopK;
    auto server = prsim::net::TcpServer::Start(server_options, hook);
    if (!server.ok()) return Fail(server.status().ToString());
    server_ = std::move(server).ValueOrDie();
    for (size_t c = 0; c < kConnections; ++c) {
      std::string why;
      connections_.push_back(Connection::Open(server_->port(), &why));
      if (connections_.back() == nullptr) return Fail(why);
    }
    return true;
  }

  /// Requests for the first kProbeSources query sources, pipelined on the
  /// first connection.
  bool Probe() {
    ScopedSpan phase(tracer_, "phase.probe");
    std::string why;
    std::vector<RequestTiming> timings(kProbeSources);
    for (size_t i = 0; i < kProbeSources; ++i) {
      timings[i].id = kProbeIds + i;
      if (!connections_[0]->Send(&timings[i], query_sources_[i], kTopK, &why)) {
        return Fail(why);
      }
      timings[i].due = timings[i].sent;
    }
    for (size_t i = 0; i < kProbeSources; ++i) {
      if (!connections_[0]->Receive(&timings[i], query_sources_[i], &reply_log_,
                                    &why)) {
        return Fail(why);
      }
    }
    RecordRequests(timings, phase.id());
    return true;
  }

  /// Client spans of served requests, from send to decoded reply.
  void RecordRequests(const std::vector<RequestTiming>& timings, uint64_t parent) {
    for (const RequestTiming& timing : timings) {
      tracer_.Record(tracer_.NewId(), "net.request", timing.sent, timing.done,
                     parent, timing.id);
    }
  }

  // ------------------------------------------------------ measured rounds

  /// The measured phases run interleaved, kRounds times over, so that each
  /// metric samples the whole run: a slow spell of the shared machine then
  /// touches every metric a little instead of one metric entirely.
  bool MeasureRounds() {
    // Which sources are hot is part of the workload, like its graph: with
    // a seeded permutation the cache hit ratio, and with it serve-hot's
    // throughput, moved by a third from seed to seed.
    sampler_ = std::make_unique<ZipfSampler>(
        pool_, spec_.zipf_s, StreamSeed(kGraphSeed, kZipfStream));
    {
      ScopedSpan warm(tracer_, "phase.warmup");
      for (size_t i = 1; i <= 2; ++i) engine_->Query(query_sources_[i]);
      if (!OpenLoop(spec_.warmup_share * options_.seconds, kWarmupStream,
                    kWarmupIds, false, warm.id())) {
        return false;
      }
    }
    stats_start_ = service_->Stats();
    query_s_.assign(query_sources_.size(), 1e300);
    answer_hashes_.assign(query_sources_.size(), 0);
    if (!Rebuild(0)) return false;
    const bool repeat_builds = build_s_[0] < kRepeatBuildBelowSeconds;
    const double round_s = options_.seconds / kRounds;
    for (uint64_t round = 0; round < kRounds; ++round) {
      ScopedSpan round_span(tracer_, "phase.round");
      Queries(spec_.query_share * round_s, round_span.id());
      Batches(spec_.batch_share * round_s, round_span.id());
      if (repeat_builds && !Rebuild(round_span.id())) return false;
      if (!ClosedLoop(spec_.closed_share * round_s, round, round_span.id())) {
        return false;
      }
      ScopedSpan open_span(tracer_, "phase.serve_open", round_span.id());
      if (!OpenLoop(spec_.open_share * round_s, kOpenStream * 100 + round,
                    kOpenIds + round * kRoundIds, true, open_span.id())) {
        return false;
      }
    }
    stats_end_ = service_->Stats();
    peak_rss_mb_ = PeakRssMb();
    return true;
  }

  /// The query sources in turn, from where the last round stopped, one at
  /// a time at threads=nproc-1, for `seconds` (at least one query).
  void Queries(double seconds, uint64_t parent) {
    ScopedSpan phase(tracer_, "phase.queries", parent);
    const Clock::time_point until = Clock::now() + Seconds(seconds);
    std::vector<double> round_s;
    do {
      const size_t i = queries_run_++ % query_sources_.size();
      const Node source = query_sources_[i];
      ScopedSpan query_span(tracer_, "prsim.query", phase.id());
      const ScoreList answer = engine_->Query(source);
      round_s.push_back(query_span.End());
      query_s_[i] = std::min(query_s_[i], round_s.back());
      if (queries_run_ <= query_sources_.size()) {
        answer_hashes_[i] = AnswerHash(answer);
        result_entries_.push_back(static_cast<double>(answer.size()));
        verdict_.Expect(CheckFullAnswer(answer, source, n_, kC, spec_.eps),
                        "query phase answer");
      } else if (AnswerHash(answer) != answer_hashes_[i]) {
        verdict_.Expect("answer changed between rounds", "query phase");
      }
    } while (Clock::now() < until);
    query_round_p50_s_.push_back(Median(round_s));
  }

  /// Each answered query source's fastest answer.
  std::vector<double> QueryTimes() const {
    return {query_s_.begin(),
            query_s_.begin() + std::min(queries_run_, query_s_.size())};
  }

  /// Whole repetitions of the batch, at least one, for `seconds`.
  void Batches(double seconds, uint64_t parent) {
    ScopedSpan phase(tracer_, "phase.batch", parent);
    const Clock::time_point until = Clock::now() + Seconds(seconds);
    do {
      ScopedSpan batch_span(tracer_, "batch_query.batch", phase.id());
      prsim::BatchQueryResult result =
          prsim::BatchQueryWithStats(*engine_, batch_sources_, query_threads_);
      batch_qps_.push_back(static_cast<double>(batch_sources_.size()) /
                           batch_span.End());
      batch_p50_s_.push_back(result.cost.latency_p50_seconds);
      for (size_t i = 0; i < batch_sources_.size(); ++i) {
        verdict_.Expect(first_batch_.empty()
                            ? CheckFullAnswer(result.scores[i], batch_sources_[i],
                                              n_, kC, spec_.eps)
                            : CheckIdentical(result.scores[i], first_batch_[i]),
                        "batch answer");
      }
      if (first_batch_.empty()) first_batch_ = std::move(result.scores);
    } while (Clock::now() < until && batch_qps_.size() < 1000);
  }

  /// The index path again, into throwaway artifacts that must equal the
  /// index stage's bytes. The first rebuild also gives the index size and
  /// the builder's answers to the reference sources.
  bool Rebuild(uint64_t parent) {
    std::unique_ptr<prsim::SingleSourceSimRank> builder;
    if (!IndexPath(PathIn("rebuilt.idx"), PathIn("rebuilt.bin"), parent, &builder)) {
      return false;
    }
    if (reference_answers_.empty()) {
      const auto& built = dynamic_cast<const prsim::PRSim&>(*builder);
      index_mb_ = static_cast<double>(built.IndexBytes()) / 1e6;
      index_tuples_ = built.index().total_tuples();
      for (size_t i = 0; i < kReferenceSources; ++i) {
        reference_answers_.push_back(builder->Query(query_sources_[i]));
      }
    }
    builder.reset();
    built_graph_.reset();
    const std::string bytes = ReadBytes(PathIn("rebuilt.idx"));
    verdict_.Expect(!bytes.empty() && bytes == ReadBytes(PathIn("prsim.idx"))
                        ? ""
                        : "artifact bytes differ",
                    "index rebuild");
    return true;
  }

  /// `seconds` of closed loop; counts the completions inside the window.
  bool ClosedLoop(double seconds, uint64_t round, uint64_t parent) {
    ScopedSpan phase(tracer_, "phase.serve_closed", parent);
    uint64_t in_window = 0;
    std::vector<RequestTiming> timings;
    std::string why;
    if (!RunClosedLoop(connections_, *sampler_,
                       StreamSeed(StreamSeed(options_.seed, kClosedStream), round),
                       kWindow, seconds, kTopK, kClosedIds + round * kRoundIds,
                       &reply_log_, &in_window,
                       tracer_.enabled() ? &timings : nullptr, &why)) {
      return Fail(why);
    }
    closed_qps_.push_back(static_cast<double>(in_window) / seconds);
    RecordRequests(timings, phase.id());
    return true;
  }

  /// `seconds` of open loop at the workload's rate; when `measured`, keeps
  /// the requests' timings and the phase's median latency from due time.
  bool OpenLoop(double seconds, uint64_t stream, uint64_t id_base,
                bool measured, uint64_t parent) {
    const size_t count = std::max<size_t>(
        1, static_cast<size_t>(std::llround(spec_.open_rate * seconds)));
    Rng rng(StreamSeed(StreamSeed(options_.seed, stream), 1));
    std::vector<Node> sources(count);
    for (Node& source : sources) source = sampler_->Sample(rng);
    const std::vector<double> due = PoissonSchedule(
        spec_.open_rate, count, StreamSeed(StreamSeed(options_.seed, stream), 2));
    std::vector<RequestTiming> timings;
    std::string why;
    if (!RunOpenLoop(connections_, sources, due, kTopK, id_base, &reply_log_,
                     &timings, &why)) {
      return Fail(why);
    }
    RecordRequests(timings, parent);
    if (measured) {
      std::vector<double> latency;
      for (const RequestTiming& timing : timings) {
        latency.push_back(SecondsBetween(timing.due, timing.done));
      }
      open_p50_s_.push_back(Median(latency));
      open_timings_.insert(open_timings_.end(), timings.begin(), timings.end());
    }
    return true;
  }

  /// Closes the clients, then drains the server, so its counters are final.
  bool FinishServing() {
    std::vector<double> latency, late;
    for (const RequestTiming& timing : open_timings_) {
      latency.push_back(SecondsBetween(timing.due, timing.done));
      late.push_back(SecondsBetween(timing.due, timing.sent));
    }
    std::fprintf(stderr,
                 "%s open loop: %zu requests, latency p50 %.3f p90 %.3f p99 "
                 "%.3f ms, sender late p99 %.3f ms\n",
                 spec_.name, latency.size(), Quantile(latency, 0.5) * 1e3,
                 Quantile(latency, 0.9) * 1e3, Quantile(latency, 0.99) * 1e3,
                 Quantile(late, 0.99) * 1e3);
    // The samples behind the reduced figures, in the order taken.
    std::fprintf(stderr, "%s samples: {", spec_.name);
    PrintSamples("index_path_s", build_s_, ", ");
    PrintSamples("batch_qps", batch_qps_, ", ");
    PrintSamples("round_query_p50_s", query_round_p50_s_, ", ");
    PrintSamples("round_closed_qps", closed_qps_, ", ");
    PrintSamples("round_open_p50_s", open_p50_s_, "}\n");
    connections_.clear();
    server_->Shutdown();
    transport_ = server_->Stats();
    stats_final_ = service_->Stats();
    auto t1 = prsim::EngineRegistry::Global().CreateFromIndex(
        "prsim", *graph_, PRSimConfig(spec_.eps, engine_seed_, 1),
        PathIn("prsim.idx"));
    if (!t1.ok()) return Fail(t1.status().ToString());
    engine_t1_ = std::move(t1).ValueOrDie();
    return true;
  }

  // ------------------------------------------------ traced-run extras

  /// The work that serves per-layer numbers alone, and the per-layer
  /// metrics.
  bool TraceExtras(RunReport* report) {
    const auto& index = dynamic_cast<const prsim::PRSim&>(*engine_).index();
    ScopedSpan phase(tracer_, "phase.trace_extras");

    // The build's parts on one thread: reverse PageRank, hub ranking, and
    // the backward search of every hub.
    ScopedSpan rpr_span(tracer_, "ppr.reverse_pagerank", phase.id());
    prsim::ReversePageRankOptions rpr_options;
    rpr_options.c = kC;
    const std::vector<double> rpr = prsim::ComputeReversePageRank(*graph_, rpr_options);
    const double rpr_s = rpr_span.End();
    ScopedSpan rank_span(tracer_, "ppr.rank_nodes", phase.id());
    prsim::RankNodesByValue(rpr);
    const double rank_s = rank_span.End();
    prsim::BackwardSearchOptions search;
    search.c = kC;
    search.rmax = index.rmax();
    double search_sum = 0, search_max = 0;
    for (NodeId hub : index.hub_nodes()) {
      ScopedSpan hub_span(tracer_, "ppr.backward_search", phase.id());
      prsim::BackwardSearch(*graph_, hub, search);
      const double seconds = hub_span.End();
      search_sum += seconds;
      search_max = std::max(search_max, seconds);
    }
    const double build_index_s = Median(index_build_s_);
    const double hub_wall = std::max(1e-9, build_index_s - rpr_s - rank_s);

    std::vector<double> t1_s(query_sources_.size(), 1e300);
    for (int sweep = 0; sweep < 2; ++sweep) {
      for (size_t i = 0; i < query_sources_.size(); ++i) {
        ScopedSpan query_span(tracer_, "prsim.query_t1", phase.id());
        engine_t1_->Query(query_sources_[i]);
        t1_s[i] = std::min(t1_s[i], query_span.End());
      }
    }
    const double t1_p50 = Median(t1_s);

    // Codec cost of one top-10 reply (the first probe's) and one request.
    prsim::net::WireResponse response;
    response.source = query_sources_[0];
    response.scores = reply_log_.first().at(query_sources_[0]);
    std::vector<char> bytes;
    ScopedSpan encode_span(tracer_, "net.encode_response_loop", phase.id());
    for (int i = 0; i < kCodecLoops; ++i) prsim::net::EncodeResponse(response, &bytes);
    const double encode_us = encode_span.End() * 1e6 / kCodecLoops;
    prsim::net::WireRequest request;
    request.source = query_sources_[0];
    request.k = kTopK;
    request.fresh_seed = true;
    prsim::net::EncodeRequest(request, &bytes);
    int decoded = 0;
    ScopedSpan decode_span(tracer_, "net.decode_request_loop", phase.id());
    for (int i = 0; i < kCodecLoops; ++i) {
      decoded += prsim::net::DecodeRequest(bytes).ok() ? 1 : 0;
    }
    const double decode_us = decode_span.End() * 1e6 / kCodecLoops;
    verdict_.Expect(decoded == kCodecLoops ? "" : "request failed to decode",
                    "codec loop");
    phase.End();

    // Serve-side numbers over the open loop, joined by request id.
    const std::vector<Tracer::Span> spans = tracer_.Snapshot();
    const auto hook_spans = SpansByRequest(spans, "net.submit_hook");
    const auto service_spans = SpansByRequest(spans, "query_service.request");
    std::vector<double> rtt, late, inbound, service_latency;
    for (const RequestTiming& timing : open_timings_) {
      rtt.push_back(SecondsBetween(timing.sent, timing.done));
      late.push_back(SecondsBetween(timing.due, timing.sent));
      if (const auto it = hook_spans.find(timing.id); it != hook_spans.end()) {
        inbound.push_back(SecondsBetween(timing.sent, it->second->start));
      }
      if (const auto it = service_spans.find(timing.id); it != service_spans.end()) {
        service_latency.push_back(SecondsBetween(it->second->start, it->second->end));
      }
    }
    const prsim::ServiceStats& a = stats_end_;
    const prsim::ServiceStats& b = stats_start_;
    const auto delta = [](uint64_t after, uint64_t before) {
      return static_cast<double>(after - before);
    };
    const double engine_runs = delta(a.completed, b.completed) -
                               delta(a.cache_hits, b.cache_hits) -
                               delta(a.cache_coalesced, b.cache_coalesced);
    const auto per_query = [&](uint64_t after, uint64_t before) {
      return engine_runs > 0 ? delta(after, before) / engine_runs : 0.0;
    };
    const double lookups = delta(a.cache_hits, b.cache_hits) +
                           delta(a.cache_misses, b.cache_misses) +
                           delta(a.cache_coalesced, b.cache_coalesced);
    const double query_p50 = Median(QueryTimes());
    const double batch_p50 = Median(batch_p50_s_);
    const double rtt_p50 = Median(rtt);
    const double inbound_p50 = Median(inbound);
    const double service_p50 = Median(service_latency);
    const prsim::QueryCost& ca = a.aggregate_cost;
    const prsim::QueryCost& cb = b.aggregate_cost;
    report->per_layer = {
        {"graph.load_text_s", Median(load_text_s_), "s"},
        {"graph.load_artifact_s", graph_load_s_, "s"},
        {"graph.save_artifact_s", Median(graph_save_s_), "s"},
        {"ppr.reverse_pagerank_s", rpr_s, "s"},
        {"ppr.backward_search_sum_s", search_sum, "s"},
        {"ppr.backward_search_max_s", search_max, "s"},
        {"prsim_index.build_s", build_index_s, "s"},
        {"prsim_index.parallel_efficiency", search_sum / (nproc_ * hub_wall), "1"},
        {"prsim_index.tuples", static_cast<double>(index_tuples_), "count"},
        {"index_io.save_s", Median(index_save_s_), "s"},
        {"index_io.load_s", index_load_s_, "s"},
        {"setup.cold_start_s", cold_start_s_, "s"},
        {"prsim.first_query_ms", first_query_s_ * 1e3, "ms"},
        {"prsim.query_t1_p50_ms", t1_p50 * 1e3, "ms"},
        {"prsim.intra_speedup", query_p50 > 0 ? t1_p50 / query_p50 : 0, "1"},
        {"prsim.walks", per_query(ca.walks, cb.walks), "count"},
        {"prsim.meeting_tests", per_query(ca.meeting_tests, cb.meeting_tests), "count"},
        {"prsim.backward_walks", per_query(ca.backward_walks, cb.backward_walks), "count"},
        {"prsim.backward_increments",
         per_query(ca.backward_increments, cb.backward_increments), "count"},
        {"prsim.index_tuples_read",
         per_query(ca.index_tuples_read, cb.index_tuples_read), "count"},
        {"prsim.result_entries", Mean(result_entries_), "count"},
        {"batch_query.query_p50_ms", batch_p50 * 1e3, "ms"},
        {"batch_query.slowdown", t1_p50 > 0 ? batch_p50 / t1_p50 : 0, "1"},
        {"query_service.latency_p50_ms", service_p50 * 1e3, "ms"},
        {"query_service.completed", delta(a.completed, b.completed), "count"},
        {"query_service.queue_high_water", static_cast<double>(a.queue_high_water),
         "count"},
        {"result_cache.hits", delta(a.cache_hits, b.cache_hits), "count"},
        {"result_cache.misses", delta(a.cache_misses, b.cache_misses), "count"},
        {"result_cache.coalesced", delta(a.cache_coalesced, b.cache_coalesced), "count"},
        {"result_cache.evictions", delta(a.cache_evictions, b.cache_evictions), "count"},
        {"result_cache.hit_ratio",
         lookups > 0 ? delta(a.cache_hits, b.cache_hits) / lookups : 0, "1"},
        {"net.rtt_p50_ms", rtt_p50 * 1e3, "ms"},
        {"net.rtt_p99_ms", Quantile(rtt, 0.99) * 1e3, "ms"},
        {"net.inbound_p50_ms", inbound_p50 * 1e3, "ms"},
        {"net.outbound_p50_ms", (rtt_p50 - inbound_p50 - service_p50) * 1e3, "ms"},
        {"net.encode_response_us", encode_us, "us"},
        {"net.decode_request_us", decode_us, "us"},
        {"loadgen.late_p99_ms", Quantile(late, 0.99) * 1e3, "ms"},
    };
    return true;
  }

  // ------------------------------------------------------------- checks

  bool Check() {
    // The cold-loaded engine answers like the engine that built the index,
    // and threads=1 answers like threads=nproc-1.
    for (size_t i = 0; i < kReferenceSources; ++i) {
      const ScoreList cold = engine_->Query(query_sources_[i]);
      verdict_.Expect(CheckIdentical(cold, reference_answers_[i]),
                      "cold-loaded engine vs index builder");
      verdict_.Expect(CheckIdentical(engine_t1_->Query(query_sources_[i]), cold),
                      "threads=1 vs threads=nproc-1");
    }

    // Every reply was checked as it arrived: well formed, and equal to the
    // first reply for its source.
    verdict_.Expect(reply_log_.failure(), "served reply");
    // Replies match the in-process fresh-seed answer: for every distinct
    // source under the exact oracle, for the probes otherwise.
    const bool exact = n_ <= kExactOracleMaxNodes;
    std::vector<NodeId> distinct;
    if (exact) {
      for (const auto& entry : reply_log_.first()) distinct.push_back(entry.first);
      std::sort(distinct.begin(), distinct.end());
    } else {
      for (size_t i = 0; i < kProbeSources; ++i) {
        if (std::find(distinct.begin(), distinct.end(), query_sources_[i]) ==
            distinct.end()) {
          distinct.push_back(query_sources_[i]);
        }
      }
    }
    const std::vector<ScoreList> fresh = FreshAnswers(*engine_t1_, distinct, nproc_);
    for (size_t i = 0; i < distinct.size(); ++i) {
      verdict_.Expect(CheckFullAnswer(fresh[i], distinct[i], n_, kC, spec_.eps),
                      "fresh in-process answer");
      verdict_.Expect(CheckIdentical(Reply(distinct[i]),
                                     prsim::TopK(fresh[i], kTopK, distinct[i])),
                      "served reply vs in-process fresh-seed answer");
    }
    if (exact) {
      ScoreExact(distinct);
    } else {
      ScoreMonteCarlo(distinct, fresh);
    }
    if (errors_.empty()) verdict_.Expect("no served source could be scored", "accuracy");

    // Client-side counts equal the server's own counters.
    const uint64_t requests = reply_log_.replies();
    const auto expect_count = [&](uint64_t got, uint64_t want, const char* what) {
      if (got != want) {
        verdict_.Expect(std::string(what) + " is " + std::to_string(got) +
                            ", want " + std::to_string(want),
                        "service counters");
      }
    };
    const prsim::ServiceStats& f = stats_final_;
    expect_count(f.completed - stats_initial_.completed, requests, "completed");
    expect_count(f.failed, 0, "failed");
    expect_count(f.rejected, 0, "rejected");
    expect_count(f.shed, 0, "shed");
    expect_count(f.deadline_exceeded, 0, "deadline_exceeded");
    expect_count(transport_.requests, requests, "transport requests");
    if (spec_.cache_bytes > 0) {
      expect_count(f.cache_hits + f.cache_misses + f.cache_coalesced, requests,
                   "cache hits + misses + coalesced");
    }
    return true;
  }

  const ScoreList& Reply(NodeId source) const {
    return reply_log_.first().at(source);
  }

  /// Checks a served reply against an oracle row and scores its accuracy.
  void Score(NodeId source, const std::vector<double>& row, double bound,
             double tie) {
    verdict_.Expect(CheckWithinOracle(Reply(source), row, spec_.eps + bound),
                    "served scores vs oracle");
    const TopKAccuracy accuracy = ScoreTopK(Reply(source), row, source, kTopK, tie);
    if (accuracy.defined) {
      errors_.push_back(accuracy.error);
      precisions_.push_back(accuracy.precision);
    }
  }

  /// The exact oracle scores every distinct served source.
  void ScoreExact(const std::vector<NodeId>& sources) {
    const ExactSimRank exact(InAdjacency(n_, edges_), kC, kExactIterations, nproc_);
    std::vector<double> row(n_);
    for (NodeId source : sources) {
      for (Node v = 0; v < n_; ++v) row[v] = exact.At(source, v);
      Score(source, row, exact.error_bound(), 2 * exact.error_bound());
    }
  }

  /// The Monte Carlo oracle scores each probe over the pool of its answer's
  /// top kMcPool (the paper's pooling for graphs without ground truth).
  void ScoreMonteCarlo(const std::vector<NodeId>& sources,
                       const std::vector<ScoreList>& fresh) {
    const InAdjacency adjacency(n_, edges_);
    const MonteCarloSimRank mc(adjacency, kC);
    std::vector<std::pair<size_t, NodeId>> pairs;  // (source index, node)
    for (size_t s = 0; s < sources.size(); ++s) {
      for (const auto& entry : prsim::TopK(fresh[s], kMcPool, sources[s])) {
        pairs.emplace_back(s, entry.first);
      }
    }
    std::vector<double> estimates(pairs.size());
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < nproc_; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < pairs.size(); i += nproc_) {
          estimates[i] = mc.Estimate(sources[pairs[i].first], pairs[i].second,
                                     kMcSamples, StreamSeed(options_.seed, kMcStream + i));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    const double half_width = MonteCarloSimRank::HalfWidth(kMcSamples, kMcDelta);
    std::vector<double> row(n_, 0.0);
    for (size_t s = 0, i = 0; s < sources.size(); ++s) {
      std::fill(row.begin(), row.end(), 0.0);
      for (; i < pairs.size() && pairs[i].first == s; ++i) {
        row[pairs[i].second] = estimates[i];
      }
      Score(sources[s], row, half_width, 2 * half_width);
    }
  }

  // ------------------------------------------------------------- report

  std::vector<Metric> EndToEnd() const {
    return {
        {"build_s", FastTenth(build_s_), "s"},
        {"setup_s", setup_s_, "s"},
        {"query_p50_ms", Median(QueryTimes()) * 1e3, "ms"},
        {"query_p90_ms", Quantile(QueryTimes(), 0.9) * 1e3, "ms"},
        {"batch_qps", HighTenth(batch_qps_), "queries/s"},
        {"index_mb", index_mb_, "MB"},
        {"peak_rss_mb", peak_rss_mb_, "MB"},
        {"serve_qps", HighTenth(closed_qps_), "requests/s"},
        {"serve_p50_ms", FastTenth(open_p50_s_) * 1e3, "ms"},
        {"score_error_at_10", Mean(errors_), "1"},
        {"precision_at_10", Mean(precisions_), "1"},
    };
  }

  /// Traced runs keep their spans under <workdir>/traces.
  bool WriteTrace() {
    if (!options_.trace) return true;
    const fs::path dir = fs::path(options_.workdir) / "traces";
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::string path =
        (dir / (std::string(spec_.name) + "-seed" + std::to_string(options_.seed) +
                ".jsonl"))
            .string();
    if (!tracer_.Write(path)) return Fail("cannot write " + path);
    std::fprintf(stderr, "trace: %s\n", path.c_str());
    return true;
  }

  const WorkloadSpec& spec_;
  const RunOptions& options_;
  const unsigned nproc_;
  /// Threads of the in-process queries and batches, and the service's
  /// workers: nproc-1, since work that waits on all nproc cores of a
  /// shared machine waits on the busiest of them.
  const unsigned query_threads_;
  Tracer tracer_;
  const fs::path run_dir_;
  const uint64_t engine_seed_;
  Verdict verdict_;
  std::string error_;

  // Inputs.
  EdgeList edges_;
  Node n_ = 0;
  std::vector<Node> pool_;
  std::vector<Node> query_sources_;
  std::vector<NodeId> batch_sources_;
  std::unique_ptr<ZipfSampler> sampler_;

  // Set-up measurements.
  std::vector<double> build_s_, load_text_s_, index_build_s_, index_save_s_,
      graph_save_s_;
  double graph_load_s_ = 0, index_load_s_ = 0, first_query_s_ = 0,
         cold_start_s_ = 0, setup_s_ = 0, index_mb_ = 0;
  uint64_t index_tuples_ = 0;
  NodeId first_source_ = 0;
  ScoreList first_answer_;
  std::vector<ScoreList> reference_answers_;  // the index builder's

  // The program's objects. Declaration order is teardown order reversed:
  // engines and the service outlive the server, the graphs outlive all.
  std::unique_ptr<prsim::Graph> built_graph_;  // the index path's text graph
  std::unique_ptr<prsim::Graph> graph_;        // the cold-loaded artifact
  std::unique_ptr<prsim::SingleSourceSimRank> engine_;
  std::unique_ptr<prsim::SingleSourceSimRank> engine_t1_;
  std::unique_ptr<prsim::QueryService> service_;
  std::unique_ptr<prsim::net::TcpServer> server_;
  std::vector<std::unique_ptr<Connection>> connections_;

  // Measured rounds.
  std::vector<double> query_s_;  // per source: its fastest answer
  std::vector<uint64_t> answer_hashes_;
  std::vector<double> result_entries_;
  size_t queries_run_ = 0;
  std::vector<ScoreList> first_batch_;
  std::vector<double> batch_qps_, batch_p50_s_, closed_qps_, open_p50_s_;
  std::vector<double> query_round_p50_s_;
  ReplyLog reply_log_{kTopK};  // every served reply, checked on arrival
  std::vector<RequestTiming> open_timings_;  // measured open-loop requests
  prsim::ServiceStats stats_initial_, stats_start_, stats_end_, stats_final_;
  prsim::net::TcpServerStats transport_;
  double peak_rss_mb_ = 0;

  // Checks.
  std::vector<double> errors_, precisions_;
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

bool PrepareWorkload(const WorkloadSpec& spec, const RunOptions& options,
                     std::string* error) {
  return Run(spec, options).Prepare(error);
}

bool RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                 RunReport* report, std::string* error) {
  return Run(spec, options).Execute(report, error);
}

}  // namespace perfbench
