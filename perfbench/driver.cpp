// One measured pass of an ADVOCAT benchmark workload (see README.md).
//
//   perfbench_driver --workload sizing_4x4|certified_3x3|hunt_5x5
//                    [--seed N] [--input-seed N] [--scale full|smoke]
//                    [--trace-file PATH] [--reference-offset N]
//
// The driver calls only the library's public API: core::Verifier,
// core::find_minimal_queue_size, core::verify, a ProofSink of its own and
// proofcheck::check_proof_text. Every call runs on one thread, tasks run
// one after another, and each answer is checked against the paper's
// reference values. The last stdout line is one JSON object with the raw
// per-task measurements; run.py turns passes of it into metrics.
//
// With --trace-file the driver records a span around every call it makes
// into a layer, then runs a breakdown pass (probe replay on a fresh
// session, direct calls into each front-end stage) and writes all spans as
// Chrome trace-event JSON. Without it no span is recorded.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "advocat/verifier.hpp"
#include "analysis/analyzer.hpp"
#include "coherence/mi_abstract.hpp"
#include "deadlock/encoder.hpp"
#include "invariants/generator.hpp"
#include "proof_check.hpp"
#include "xmas/typing.hpp"

using namespace advocat;

namespace {

using Clock = std::chrono::steady_clock;

/// Per-check deadline: about 30x the slowest probe of the full workloads,
/// so a pathological slowdown fails its task instead of hanging the run.
constexpr unsigned kCheckDeadlineMs = 120'000;
constexpr double kCheckDeadlineS = kCheckDeadlineMs / 1000.0;

/// Set-up samples per task; set-up time is their median. A 5x5 hunt
/// session takes ~0.15 s to construct, a 3x3 or 4x4 sizing session 5-30 ms.
constexpr unsigned kHuntSetupRounds = 3;
constexpr unsigned kSizingSetupRounds = 5;

/// Variables that change the program under measurement (thread counts,
/// parallel modes, auditing, fault injection, clause-DB tuning, stderr
/// statistics). The driver refuses to run with any of them set.
constexpr const char* kForeignEnv[] = {
    "ADVOCAT_THREADS",     "ADVOCAT_PARALLEL",    "ADVOCAT_DETERMINISTIC",
    "ADVOCAT_AUDIT",       "ADVOCAT_FAULTS",      "ADVOCAT_REDUCE_BASE",
    "ADVOCAT_REDUCE_INC",  "ADVOCAT_NATIVE_STATS"};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// Minimal JSON object writer; doubles keep all their digits.
class Json {
 public:
  Json& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& num(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const char* key, const std::string& v) {
    return raw(key, "\"" + json_escape(v) + "\"");
  }
  Json& boolean(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& raw(const char* key, const std::string& v) {
    body_ += body_.empty() ? "" : ",";
    body_ += "\"";
    body_ += key;
    body_ += "\":";
    body_ += v;
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------------ spans

/// In-memory span recorder. Spans nest by call order: a span begun while
/// another is open is its child. Disabled, begin() and end() do nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  int begin(const char* name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_us(), 0.0,
                          stack_.empty() ? -1 : stack_.back(), task_, {}});
    stack_.push_back(id);
    return id;
  }
  void end(int id, std::string args = {}) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    spans_[static_cast<std::size_t>(id)].args = std::move(args);
    stack_.pop_back();
  }
  void set_task(int task) { task_ = task; }
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Chrome trace-event JSON (complete "X" events on one thread), which
  /// Perfetto and chrome://tracing open directly.
  void write(const std::string& path, const std::string& meta) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << meta
        << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char head[256];
      std::snprintf(head, sizeof head,
                    "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,",
                    i == 0 ? "" : ",\n", s.name, layer_len(s.name), s.name,
                    s.start_us, s.end_us - s.start_us);
      out << head << "\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
          << ",\"task\":" << s.task << (s.args.empty() ? "" : ",") << s.args
          << "}}";
    }
    out << "]}\n";
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    int task;
    std::string args;
  };

  /// The category is the span name's layer prefix ("smt" of "smt.probe").
  static int layer_len(const char* name) {
    const char* dot = std::strchr(name, '.');
    return static_cast<int>(dot == nullptr ? std::strlen(name) : dot - name);
  }
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int task_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name) : t_(t), id_(t.begin(name)) {}
  ~ScopedSpan() { t_.end(id_, std::move(args_)); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_args(std::string args) { args_ = std::move(args); }

 private:
  Tracer& t_;
  int id_;
  std::string args_;
};

// -------------------------------------------------------------- workloads

enum class Kind { Sizing, Hunt };

struct Workload {
  Kind kind;
  int mesh;
  std::vector<int> positions;
  /// Sizing workloads: the positions whose sizing is also certified.
  std::vector<int> certified = {};
};

struct Task {
  int mesh = 0;
  int dir = 0;
  std::size_t capacity = 0;  ///< hunt only: the uniform queue capacity
  std::size_t expected = 0;  ///< sizing only: the reference minimal capacity
  bool certify = false;      ///< log, check and witness this task's sizing
};

std::vector<int> all_positions(int k) {
  std::vector<int> out(static_cast<std::size_t>(k * k));
  for (int i = 0; i < k * k; ++i) out[static_cast<std::size_t>(i)] = i;
  return out;
}

std::optional<Workload> find_workload(const std::string& name, bool smoke) {
  if (name == "sizing_4x4") {
    if (smoke) return Workload{Kind::Sizing, 2, all_positions(2)};
    // Positions 3, 14 and 15 alone take longer than the other 13 together,
    // and 1 and 2 take a third of those 13 (see README.md): one pass of the
    // remaining 11 fits a run more than once.
    std::vector<int> pos = {0};
    for (int d = 4; d < 14; ++d) pos.push_back(d);
    return Workload{Kind::Sizing, 4, pos};
  }
  if (name == "certified_3x3") {
    // Every position is sized; one position per orbit of the mesh's x/y
    // reflections (corner, top edge, side edge, centre) is also certified:
    // certifying all nine takes ~80 s.
    return smoke ? Workload{Kind::Sizing, 2, all_positions(2),
                            all_positions(2)}
                 : Workload{Kind::Sizing, 3, all_positions(3), {0, 1, 3, 4}};
  }
  if (name == "hunt_5x5") {
    return smoke ? Workload{Kind::Hunt, 3, all_positions(3)}
                 : Workload{Kind::Hunt, 5, all_positions(5)};
  }
  return std::nullopt;
}

/// The paper's Fig. 4 minimal queue sizes for the abstract MI protocol:
/// 3 on the 2x2 mesh; 11 (rows 0, 2) / 5 (row 1) on 3x3; 23 (rows 0, 3) /
/// 15 (rows 1, 2) on 4x4.
std::size_t reference_minimal(int k, int dir) {
  const int row = dir / k;
  switch (k) {
    case 2: return 3;
    case 3: return row == 1 ? 5 : 11;
    case 4: return row == 0 || row == 3 ? 23 : 15;
    default: throw std::invalid_argument("no reference for this mesh");
  }
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// The workload's tasks in position order; `input_seed` draws the hunt
/// capacities.
std::vector<Task> make_tasks(const Workload& w, std::uint64_t input_seed,
                             bool smoke, long reference_offset) {
  std::vector<Task> tasks;
  std::uint64_t rng = input_seed;
  for (const int dir : w.positions) {
    Task t;
    t.mesh = w.mesh;
    t.dir = dir;
    t.certify = std::find(w.certified.begin(), w.certified.end(), dir) !=
                w.certified.end();
    if (w.kind == Kind::Hunt) {
      // Every capacity drawn lies below the mesh's minimal safe size (5x5
      // minima are 19 and up; 3x3 minima are 5 and 11), so each verdict
      // must be a deadlock.
      const std::uint64_t span = smoke ? 3 : 11;
      t.capacity = 2 + static_cast<std::size_t>(splitmix64(rng) % span);
    } else {
      t.expected = static_cast<std::size_t>(
          static_cast<long>(reference_minimal(w.mesh, dir)) + reference_offset);
    }
    tasks.push_back(t);
  }
  return tasks;
}

// ---------------------------------------------------------------- helpers

core::VerifyOptions base_options() {
  core::VerifyOptions vo;
  vo.backend = smt::Backend::Native;
  vo.threads = 1;
  vo.timeout_ms = kCheckDeadlineMs;
  return vo;
}

/// Builds the MI mesh networks and keeps count of how often and how long.
class NetBuilder {
 public:
  explicit NetBuilder(Tracer& t) : tracer_(t) {}

  xmas::Network build(int k, int dir, std::size_t capacity) {
    const ScopedSpan span(tracer_, "model.build");
    const Clock::time_point t0 = Clock::now();
    coh::MiAbstractConfig config;
    config.width = k;
    config.height = k;
    config.directory_node = dir;
    config.queue_capacity = capacity;
    xmas::Network net = std::move(coh::build_mi_abstract(config).net);
    seconds += seconds_between(t0, Clock::now());
    ++calls;
    return net;
  }

  double seconds = 0.0;
  std::uint64_t calls = 0;

 private:
  Tracer& tracer_;
};

/// Keeps every certificate of a task for checking after the sizing call.
/// Sizing runs with probe_threads = 1, so the callback is never concurrent.
class CertSink final : public smt::ProofSink {
 public:
  explicit CertSink(Tracer& t) : tracer_(t) {}
  void on_unsat_certificate(const smt::Certificate& cert) override {
    const ScopedSpan span(tracer_, "proof.sink");
    certs.push_back(cert);
  }
  std::vector<smt::Certificate> certs;

 private:
  Tracer& tracer_;
};

/// Construction time outside the session's own analysis, typing,
/// invariant and encoding stages: translating everything into the solver.
double translate_seconds(double ctor_s, const core::Verifier& session,
                         const core::VerifyResult& first) {
  return ctor_s - (session.analysis_ms() / 1000.0 + first.typing_seconds +
                   first.invariant_seconds + first.encode_seconds);
}

std::string probe_string(const core::QueueSizingResult& r) {
  std::string out;
  for (const auto& [cap, verdict] : r.probes) {
    if (!out.empty()) out += ' ';
    out += std::to_string(cap);
    out += verdict == smt::SatResult::Sat     ? 's'
           : verdict == smt::SatResult::Unsat ? 'u'
                                              : '?';
  }
  return out;
}

void add_solver_counters(Json& exact, const smt::SolveStats& s) {
  exact.num("conflicts", s.conflicts)
      .num("decisions", s.decisions)
      .num("propagations", s.propagations)
      .num("learned", s.learned_clauses);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ------------------------------------------------------------------- pass

struct Pass {
  const Workload& w;
  Tracer& tracer;
  std::vector<std::string> task_json;
  double run_s = 0.0;
  /// Per sizing task, for the breakdown pass.
  std::vector<core::QueueSizingResult> sizing;
};

/// Builds a task's session network and constructs its Verifier once;
/// returns (build + construction, construction) seconds.
std::pair<double, double> construct(Pass& p, NetBuilder& nets, const Task& t,
                                    smt::ProofSink* sink,
                                    std::optional<core::Verifier>& keep) {
  const ScopedSpan span(p.tracer, "setup.construct");
  const Clock::time_point t0 = Clock::now();
  const bool hunt = p.w.kind == Kind::Hunt;
  xmas::Network net = nets.build(t.mesh, t.dir, hunt ? t.capacity : 1);
  core::VerifyOptions vo = base_options();
  vo.symbolic_capacities = !hunt;
  vo.proof_sink = sink;
  const Clock::time_point t1 = Clock::now();
  {
    const ScopedSpan session(p.tracer, "advocat.session");
    keep.reset();
    keep.emplace(std::move(net), vo);
  }
  const Clock::time_point t2 = Clock::now();
  return {seconds_between(t0, t2), seconds_between(t1, t2)};
}

void run_task(Pass& p, const Task& t, int index) {
  p.tracer.set_task(index);
  const ScopedSpan task_span(p.tracer, "task");
  Json row;
  Json exact;
  Json layer;
  std::string failure;
  auto fail = [&failure](const std::string& why) {
    if (failure.empty()) failure = why;
  };
  NetBuilder nets(p.tracer);
  CertSink sink(p.tracer);
  const bool certified = t.certify;
  smt::ProofSink* sink_ptr = certified ? &sink : nullptr;

  // Set-up samples: build the network and construct the session the task
  // uses. The hunt checks its last constructed session; a sizing call
  // builds its own, so its samples come from this pre-pass alone.
  std::vector<double> setup;
  std::vector<double> ctor;
  std::optional<core::Verifier> session;
  const unsigned prepass =
      p.w.kind == Kind::Hunt ? kHuntSetupRounds - 1 : kSizingSetupRounds;
  for (unsigned r = 0; r < prepass; ++r) {
    const auto [s, c] = construct(p, nets, t, sink_ptr, session);
    setup.push_back(s);
    ctor.push_back(c);
    session.reset();
  }
  sink.certs.clear();
  nets.seconds = 0.0;
  nets.calls = 0;

  std::string answer;
  std::string expected;
  const Clock::time_point t0 = Clock::now();
  if (p.w.kind == Kind::Hunt) {
    const auto [s, c] = construct(p, nets, t, nullptr, session);
    setup.push_back(s);
    ctor.push_back(c);
    core::VerifyResult r;
    {
      ScopedSpan span(p.tracer, "smt.check");
      r = session->check();
      span.set_args(std::string("\"verdict\":\"") +
                    smt::to_string(r.report.result) + "\",\"conflicts\":" +
                    std::to_string(r.solve_stats.conflicts));
    }
    answer = r.report.result == smt::SatResult::Sat     ? "deadlock"
             : r.report.result == smt::SatResult::Unsat ? "deadlock-free"
                                                        : "unknown";
    expected = "deadlock";
    if (r.stop_reason != util::StopReason::kNone) {
      fail(std::string("stop reason ") + util::to_string(r.stop_reason));
    }
    if (answer != expected) fail("verdict " + answer);
    exact.str("verdict", answer);
    add_solver_counters(exact, r.solve_stats);
    layer.num("translate_s", translate_seconds(c, *session, r))
        .num("learned_hits", r.solve_stats.learned_hits)
        .num("peak_arena_bytes", r.solve_stats.peak_arena_bytes);
    session.reset();
  } else {
    core::QueueSizingOptions so;
    so.min_capacity = 1;
    so.max_capacity = 256;
    so.probe_threads = 1;
    so.verify = base_options();
    so.verify.proof_sink = sink_ptr;
    core::QueueSizingResult res;
    const auto make_net = [&nets, &t](std::size_t cap) {
      return nets.build(t.mesh, t.dir, cap);
    };
    const Clock::time_point s0 = Clock::now();
    {
      const ScopedSpan span(p.tracer, "advocat.sizing");
      res = core::find_minimal_queue_size(make_net, so);
    }
    const double sizing_s = seconds_between(s0, Clock::now());
    const double sizing_build_s = nets.seconds;
    answer = std::to_string(res.minimal_capacity);
    expected = std::to_string(t.expected);
    if (res.unknown_probes != 0) fail("unknown probe");
    if (res.stop_reason != util::StopReason::kNone) {
      fail(std::string("stop reason ") + util::to_string(res.stop_reason));
    }
    if (res.minimal_capacity != t.expected) fail("capacity " + answer);
    exact.str("probes", probe_string(res))
        .num("minimal", std::uint64_t{res.minimal_capacity});
    add_solver_counters(exact, res.solve_stats);
    exact.num("make_net_calls", nets.calls);
    layer.num("sizing_s", sizing_s)
        .num("sizing_build_s", sizing_build_s)
        .num("probes", std::uint64_t{res.probes.size()})
        .num("learned_hits", res.solve_stats.learned_hits)
        .num("peak_arena_bytes", res.solve_stats.peak_arena_bytes);

    if (certified) {
      double log_s = 0.0;
      double check_s = 0.0;
      std::uint64_t bytes = 0;
      std::uint64_t incomplete = 0;
      std::uint64_t rejected = 0;
      std::uint64_t steps = 0;
      std::uint64_t clauses = 0;
      const std::uint64_t certs = sink.certs.size();
      std::uint64_t unsat_probes = 0;
      for (const auto& pr : res.probes) {
        unsat_probes += pr.second == smt::SatResult::Unsat ? 1 : 0;
      }
      if (certs != unsat_probes) fail("certificate count");
      for (smt::Certificate& cert : sink.certs) {
        log_s += cert.proof_ms / 1000.0;
        bytes += cert.proof_bytes;
        if (!cert.complete) {
          ++incomplete;
          fail("incomplete certificate: " + cert.reason);
        }
        const Clock::time_point c0 = Clock::now();
        proofcheck::CheckResult cr;
        {
          const ScopedSpan span(p.tracer, "check.proof");
          cr = proofcheck::check_proof_text(cert.text);
        }
        const double one = seconds_between(c0, Clock::now());
        check_s += one;
        if (one > kCheckDeadlineS) fail("proof check over deadline");
        steps += cr.steps;
        clauses += cr.clauses;
        if (!cr.ok) {
          ++rejected;
          fail("certificate rejected: " + cr.reason);
        }
        std::string().swap(cert.text);
      }
      exact.num("certs", certs).num("proof_bytes", bytes)
          .num("check_steps", steps).num("check_clauses", clauses);
      layer.num("proof_log_s", log_s).num("proof_certs", certs)
          .num("proof_incomplete", incomplete).num("proof_bytes", bytes)
          .num("check_s", check_s).num("check_steps", steps)
          .num("check_clauses", clauses).num("check_rejected", rejected);

      // Witness: one below the minimal capacity the network deadlocks,
      // and the simulator replays the model to confirm it.
      const std::size_t below =
          res.minimal_capacity > 1 ? res.minimal_capacity - 1 : 1;
      core::VerifyOptions wo = base_options();
      wo.witness_replay = true;
      xmas::Network net = nets.build(t.mesh, t.dir, below);
      const Clock::time_point w0 = Clock::now();
      core::VerifyResult wr;
      {
        const ScopedSpan span(p.tracer, "witness.verify");
        wr = core::verify(net, wo);
      }
      const double witness_s = seconds_between(w0, Clock::now());
      if (wr.report.result != smt::SatResult::Sat) {
        fail(std::string("no deadlock at minimal-1: ") +
             smt::to_string(wr.report.result));
      }
      const bool replayed = wr.witness.has_value();
      const std::uint64_t states = replayed ? wr.witness->states_explored : 0;
      const bool confirmed = replayed && wr.witness->blocked;
      exact.num("witness_states", states)
          .boolean("witness_confirmed", confirmed);
      layer.num("witness_s", witness_s).num("witness_states", states)
          .num("witness_attempted", std::uint64_t{replayed})
          .num("witness_confirmed", std::uint64_t{confirmed});
    }
    p.sizing.push_back(std::move(res));
  }
  const double seconds = seconds_between(t0, Clock::now());
  p.run_s += seconds;
  layer.num("model_build_s", nets.seconds).num("ctor_s", median(ctor));

  row.str("id", "d" + std::to_string(t.dir))
      .num("mesh", std::uint64_t(t.mesh))
      .num("dir", std::uint64_t(t.dir))
      .str("expected", expected)
      .str("answer", answer)
      .boolean("ok", failure.empty())
      .str("why", failure)
      .num("seconds", seconds)
      .num("setup_s", median(setup))
      .raw("exact", exact.done())
      .raw("layer", layer.done());
  if (p.w.kind == Kind::Hunt) row.num("capacity", std::uint64_t{t.capacity});
  p.task_json.push_back(row.done());
  // Hand freed heap back to the system between tasks, so the peak RSS is
  // the largest single task's footprint, not an artifact of task order.
  malloc_trim(0);
}

// -------------------------------------------------------------- breakdown

/// Traced runs only: replays each sizing task's probes on a fresh session
/// (per-probe spans and the Sat/Unsat split) and calls every front-end
/// stage directly on each task's network.
std::string breakdown(Pass& p, const std::vector<Task>& tasks) {
  const ScopedSpan root(p.tracer, "breakdown");
  Json out;
  std::uint64_t rows = 0;
  std::uint64_t definitions = 0;
  std::uint64_t replay_conflicts = 0;
  std::uint64_t replay_mismatches = 0;
  double translate = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& t = tasks[i];
    p.tracer.set_task(static_cast<int>(i));
    NetBuilder nets(p.tracer);
    const bool hunt = p.w.kind == Kind::Hunt;
    const xmas::Network net = nets.build(t.mesh, t.dir, hunt ? t.capacity : 1);
    {
      const ScopedSpan frontend(p.tracer, "frontend");
      {
        const ScopedSpan span(p.tracer, "analysis.analyze");
        (void)analysis::analyze(net);
      }
      xmas::Typing typing;
      {
        const ScopedSpan span(p.tracer, "xmas.typing");
        typing = xmas::Typing::derive(net);
      }
      {
        const ScopedSpan span(p.tracer, "invariants.generate");
        const inv::InvariantSet set = inv::generate(net, typing, true);
        rows += set.equalities.size() + set.inequalities.size();
      }
      {
        const ScopedSpan span(p.tracer, "deadlock.encode");
        smt::ExprFactory factory;
        deadlock::EncoderOptions eo;
        eo.symbolic_capacities = !hunt;
        deadlock::Encoder encoder(net, typing, factory, eo);
        definitions += encoder.encode().definitions.size();
      }
    }
    if (hunt) continue;
    const ScopedSpan replay(p.tracer, "replay");
    core::VerifyOptions vo = base_options();
    vo.symbolic_capacities = true;
    std::optional<core::Verifier> session;
    xmas::Network first = nets.build(t.mesh, t.dir, 1);
    const Clock::time_point c0 = Clock::now();
    {
      const ScopedSpan span(p.tracer, "advocat.session");
      session.emplace(std::move(first), vo);
    }
    const double ctor_s = seconds_between(c0, Clock::now());
    std::uint64_t before = 0;
    bool first_probe = true;
    for (const auto& [cap, verdict] : p.sizing[i].probes) {
      ScopedSpan span(p.tracer, "smt.probe");
      const core::VerifyResult r = session->probe_capacity(cap);
      if (first_probe) translate += translate_seconds(ctor_s, *session, r);
      first_probe = false;
      const std::uint64_t delta = r.solve_stats.conflicts - before;
      before = r.solve_stats.conflicts;
      span.set_args("\"capacity\":" + std::to_string(cap) +
                    ",\"verdict\":\"" + smt::to_string(r.report.result) +
                    "\",\"conflicts\":" + std::to_string(delta));
      if (r.report.result != verdict) ++replay_mismatches;
    }
    replay_conflicts += before;
  }
  out.num("invariant_rows", rows)
      .num("encode_definitions", definitions)
      .num("replay_conflicts", replay_conflicts)
      .num("replay_verdict_mismatches", replay_mismatches)
      .num("translate_s", translate);
  return out.done();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "sizing_4x4|certified_3x3|hunt_5x5 [--seed N] [--input-seed N] "
               "[--scale full|smoke] [--trace-file PATH] "
               "[--reference-offset N]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 1;
  std::uint64_t input_seed = 1;
  bool smoke = false;
  std::string trace_file;
  long reference_offset = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") workload_name = val;
    else if (arg == "--seed") seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--input-seed")
      input_seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (arg == "--scale") smoke = val == "smoke";
    else if (arg == "--trace-file") trace_file = val;
    else if (arg == "--reference-offset")
      reference_offset = std::atol(val.c_str());
    else return usage(("unknown argument " + arg).c_str());
  }
  for (const char* var : kForeignEnv) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench_driver: refusing to run with %s set\n",
                   var);
      return 3;
    }
  }
  const std::optional<Workload> w = find_workload(workload_name, smoke);
  if (!w) return usage(("unknown workload '" + workload_name + "'").c_str());

  const std::vector<Task> tasks =
      make_tasks(*w, input_seed, smoke, reference_offset);
  Tracer tracer(!trace_file.empty());
  Pass pass{*w, tracer, {}, 0.0, {}};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    run_task(pass, tasks[i], static_cast<int>(i));
  }
  const double rss = peak_rss_mib();
  const std::string env =
      Json()
          .str("compiler", PERFBENCH_COMPILER)
          .str("build_type", PERFBENCH_BUILD_TYPE)
          .num("nproc", std::uint64_t{std::thread::hardware_concurrency()})
          .done();

  Json out;
  out.str("workload", workload_name)
      .str("scale", smoke ? "smoke" : "full")
      .num("seed", seed)
      .num("input_seed", input_seed)
      .raw("env", env)
      .num("setup_rounds", std::uint64_t{w->kind == Kind::Hunt
                                              ? kHuntSetupRounds
                                              : kSizingSetupRounds})
      .num("run_s", pass.run_s)
      .num("peak_rss_mb", rss);
  std::string rows = "[";
  for (std::size_t i = 0; i < pass.task_json.size(); ++i) {
    rows += (i == 0 ? "" : ",") + pass.task_json[i];
  }
  out.raw("tasks", rows + "]");
  if (tracer.on()) {
    out.raw("breakdown", breakdown(pass, tasks));
    out.num("spans", std::uint64_t{tracer.size()});
    tracer.write(trace_file, Json()
                                 .str("workload", workload_name)
                                 .num("seed", seed)
                                 .raw("env", env)
                                 .done());
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}
