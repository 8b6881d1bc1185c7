// The two closed-loop workloads: table1-kiss and portfolio-table1.
//
// One job is in flight at a time, like a user compiling a suite: the
// problem text goes through parse_problem_text, the result to a fresh
// EncodingService, and the next job starts when the reply is back.  A
// fresh service per job keeps the result cache out of these workloads
// (serve-mixed is the one that exercises it).  The service has one
// worker: restarts are ~15% of a table1-kiss pass and the anneal slot
// dominates a portfolio job, so more workers save little, while one
// worker keeps latency and peak RSS from depending on how many cores
// neighbouring tenants leave free and on which thread's malloc arena a
// slot lands in.  Runs are whole passes over
// the suite, in a seed-shuffled order, until the timed job latencies add
// up to --seconds; every pass does identical work, so per-pass counts
// repeat exactly.

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <random>

#include "base/problem_io.h"
#include "check/verifier.h"
#include "common.h"
#include "constraints/constraint_io.h"
#include "constraints/derive.h"
#include "core/picola.h"
#include "eval/constraint_eval.h"
#include "kiss/benchmarks.h"
#include "kiss/kiss_io.h"
#include "service/service.h"

namespace perfbench {

using namespace picola;

namespace {

struct Config {
  portfolio::PortfolioOptions portfolio;
  double tail_p = 0.95;
  /// Run one untimed pass first (warms caches; its results are checked).
  bool warmup = false;
  /// Check that no result scores worse than the picola slot alone.
  bool never_worse_than_picola = false;
};

struct Expected {
  bool seen = false;
  uint64_t enc = 0;
  long cubes = 0;
};

}  // namespace

void layer_pass(const std::vector<Input>& inputs, RunResult* out) {
  double parse_ms = 0, derive_ms = 0, encode_ms = 0, eval_ms = 0;
  uint64_t derive_allocs = 0, encode_allocs = 0, eval_allocs = 0;
  long groups = 0, classify_calls = 0;
  uint64_t request = 1u << 30;  // distinct from the timed jobs' ids
  // Times and allocations are read inside each span, so the span log's
  // own growth is never counted.
  for (const Input& in : inputs) {
    ++request;
    ConstraintSet cs;
    if (in.kiss) {
      KissParseResult k;
      {
        Span s("kiss", "parse_kiss", request);
        uint64_t t = now_ns();
        k = parse_kiss(in.text);
        parse_ms += ms_since(t);
      }
      out->check(k.ok(), in.name + ": parse_kiss failed: " + k.error);
      {
        Span s("constraints", "derive_face_constraints", request);
        uint64_t a = thread_allocs();
        uint64_t t = now_ns();
        cs = derive_face_constraints(k.fsm).set;
        derive_ms += ms_since(t);
        derive_allocs += thread_allocs() - a;
      }
      groups += static_cast<long>(cs.constraints.size());
    } else {
      std::optional<Problem> p = parse_problem_text(in.text, nullptr);
      out->check(p.has_value(), in.name + ": parse failed");
      if (!p) continue;
      cs = p->set;
    }
    for (int r = 0; r < in.restarts; ++r) {
      PicolaResult pr;
      {
        Span s("core", "picola_encode", request);
        uint64_t a = thread_allocs();
        uint64_t t = now_ns();
        pr = picola_encode(cs, picola_restart_options({}, r));
        encode_ms += ms_since(t);
        encode_allocs += thread_allocs() - a;
      }
      classify_calls += pr.stats.classify_calls;
      Span s("eval", "evaluate_constraints", request);
      uint64_t a = thread_allocs();
      uint64_t t = now_ns();
      evaluate_constraints(cs, pr.encoding);
      eval_ms += ms_since(t);
      eval_allocs += thread_allocs() - a;
    }
  }
  out->set("kiss.parse_ms", parse_ms, "ms");
  out->set("constraints.derive_ms", derive_ms, "ms");
  out->set("constraints.derive_allocs", static_cast<double>(derive_allocs), "count");
  out->set("constraints.groups", static_cast<double>(groups), "count");
  out->set("core.encode_ms", encode_ms, "ms");
  out->set("core.encode_allocs", static_cast<double>(encode_allocs), "count");
  out->set("core.classify_calls", static_cast<double>(classify_calls), "count");
  out->set("eval.evaluate_ms", eval_ms, "ms");
  out->set("eval.evaluate_allocs", static_cast<double>(eval_allocs), "count");
}

namespace {

/// Full checks of a first result: the verifier, a fresh cube count, and
/// optionally the never-worse-than-picola rule.
void check_result(const Input& in, const ConstraintSet& set,
                  const JobResult& res, const Config& cfg, RunResult* out) {
  Job job;
  job.set = set;
  const ConstraintSet cs = canonicalize(job).set;  // what the service encodes
  check::VerifyReport rep = check::verify_encoding(cs, res.picola.encoding);
  out->check(rep.ok(), in.name + ": verify_encoding: " + rep.to_string());
  long fresh = evaluate_constraints(cs, res.picola.encoding).total_cubes;
  out->check(fresh == res.total_cubes,
             in.name + ": reported " + std::to_string(res.total_cubes) +
                 " cubes, evaluate_constraints gives " + std::to_string(fresh));
  if (cfg.never_worse_than_picola) {
    PicolaResult alone = picola_encode(cs, picola_restart_options({}, 0));
    long alone_cubes = evaluate_constraints(cs, alone.encoding).total_cubes;
    out->check(res.total_cubes <= alone_cubes,
               in.name + ": portfolio " + std::to_string(res.total_cubes) +
                   " cubes, worse than picola alone " +
                   std::to_string(alone_cubes));
  }
}

RunResult run_offline(const Args& args, const std::vector<Input>& inputs,
                      const Config& cfg) {
  RunResult out;
  std::mt19937_64 rng(args.seed);
  std::vector<size_t> order(inputs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<Expected> expected(inputs.size());

  std::vector<double> setup_s, latency_ms, job_wall_ms, queue_wait_ms;
  obs::Histogram::Snapshot pool_wait{}, slot_picola{}, slot_sat{}, slot_anneal{};
  // Counts of the first timed pass (every pass repeats them exactly).
  double wins_picola = 0, wins_sat = 0, wins_anneal = 0, anneal_slots = 0;
  double sat_conflicts = 0, sat_decisions = 0, sat_calls = 0;
  long cache_hits = 0, pass_cubes = -1;
  double busy_ms = 0;
  uint64_t job_id = 0;
  int timed_passes = 0;

  for (int pass = 0;; ++pass) {
    const bool timed = !(cfg.warmup && pass == 0);
    if (timed && busy_ms >= args.seconds * 1000.0) break;
    const bool first_timed = timed && timed_passes == 0;
    std::shuffle(order.begin(), order.end(), rng);
    long cubes = 0;
    for (size_t idx : order) {
      const Input& in = inputs[idx];
      ++job_id;
      if (timed) ++out.attempted;
      uint64_t t0 = now_ns();
      ServiceOptions so;
      so.num_threads = 1;
      auto svc = std::make_unique<EncodingService>(so);
      double setup = static_cast<double>(now_ns() - t0) / 1e9;

      std::optional<Problem> prob;
      std::string error;
      JobResult res;
      bool ok = true;
      uint64_t t1 = now_ns();
      {
        Span job("bench", "job", job_id);
        {
          Span s(in.kiss ? "kiss" : "constraints", "parse_problem_text",
                 job_id, job.id());
          prob = parse_problem_text(in.text, &error);
        }
        if (prob) {
          Job j;
          j.set = prob->set;
          j.restarts = in.restarts;
          j.portfolio = cfg.portfolio;
          j.tag = in.name;
          Span s("service", "EncodingService::submit", job_id, job.id());
          try {
            res = svc->submit(std::move(j)).get();
          } catch (const std::exception& e) {
            ok = false;
            error = e.what();
          }
        } else {
          ok = false;
        }
      }
      double latency = ms_since(t1);
      if (!ok) {
        if (timed) ++out.failed;
        out.check(false, in.name + ": " + error);
        continue;
      }

      const obs::MetricsRegistry& reg = svc->metrics();
      if (timed) {
        setup_s.push_back(setup);
        latency_ms.push_back(latency);
        busy_ms += latency;
        job_wall_ms.push_back(res.wall_ms);
        queue_wait_ms.push_back(res.queue_wait_ms);
        cache_hits += res.cache_hit ? 1 : 0;
        merge_into(&pool_wait, histogram(reg, "pool/queue_wait"));
        merge_into(&slot_picola, histogram(reg, "portfolio/picola"));
        merge_into(&slot_sat, histogram(reg, "portfolio/sat"));
        merge_into(&slot_anneal, histogram(reg, "portfolio/anneal"));
      }
      if (first_timed) {
        wins_picola += static_cast<double>(reg.counter_value("service/backend_picola"));
        wins_sat += static_cast<double>(reg.counter_value("service/backend_sat"));
        wins_anneal += static_cast<double>(reg.counter_value("service/backend_anneal"));
        anneal_slots += static_cast<double>(histogram(reg, "portfolio/anneal").count);
        sat_conflicts += static_cast<double>(reg.counter_value("sat/conflicts"));
        sat_decisions += static_cast<double>(reg.counter_value("sat/decisions"));
        sat_calls += static_cast<double>(reg.counter_value("sat/solver_calls"));
      }
      svc.reset();  // joins the pool outside the timed interval

      uint64_t enc = encoding_fingerprint(res.picola.encoding);
      Expected& ex = expected[idx];
      if (!ex.seen) {
        check_result(in, prob->set, res, cfg, &out);
        ex = {true, enc, res.total_cubes};
      } else {
        out.check(enc == ex.enc && res.total_cubes == ex.cubes,
                  in.name + ": result differs from its first run");
      }
      cubes += res.total_cubes;
    }
    if (!timed) continue;
    ++timed_passes;
    out.check(pass_cubes < 0 || cubes == pass_cubes,
              "total cubes differ between passes");
    pass_cubes = cubes;
  }

  std::fprintf(stderr, "# %d timed passes, %zu jobs, %.1f ms busy\n",
               timed_passes, latency_ms.size(), busy_ms);
  out.set("setup_s", percentile(setup_s, 0.5), "s");
  out.set("jobs_per_s", ratio(static_cast<double>(latency_ms.size()), busy_ms / 1000.0), "1/s");
  out.set("job_p50_ms", percentile(latency_ms, 0.5), "ms");
  out.set("job_tail_ms", percentile(latency_ms, cfg.tail_p), "ms");
  out.set("total_cubes", static_cast<double>(pass_cubes), "count");

  if (kTraced) {
    layer_pass(inputs, &out);
    out.set("quality.total_cubes", static_cast<double>(pass_cubes), "count");
    out.set("service.cache_hit_ratio",
            ratio(static_cast<double>(cache_hits), static_cast<double>(latency_ms.size())), "ratio");
    out.set("service.job_wall_ms", mean(job_wall_ms), "ms");
    out.set("service.queue_wait_ms", mean(queue_wait_ms), "ms");
    out.set("service.pool_queue_wait_p99_ms",
            static_cast<double>(pool_wait.percentile(0.99)) / 1e6, "ms");
    out.set("portfolio.picola_slot_ms", mean_ms(slot_picola), "ms");
    out.set("portfolio.sat_slot_ms", mean_ms(slot_sat), "ms");
    out.set("portfolio.anneal_slot_ms", mean_ms(slot_anneal), "ms");
    out.set("portfolio.wins_picola", wins_picola, "count");
    out.set("portfolio.wins_sat", wins_sat, "count");
    out.set("portfolio.wins_anneal", wins_anneal, "count");
    out.set("portfolio.anneal_win_ratio", ratio(wins_anneal, anneal_slots), "ratio");
    out.set("sat.conflicts", sat_conflicts, "count");
    out.set("sat.decisions", sat_decisions, "count");
    out.set("sat.solver_calls", sat_calls, "count");
  }
  return out;
}

}  // namespace

RunResult run_table1_kiss(const Args& args) {
  std::vector<Input> inputs;
  for (const std::string& name : table1_benchmarks())
    inputs.push_back({name, write_kiss(make_benchmark(name)), true, 4});
  Config cfg;
  cfg.tail_p = 0.95;
  cfg.warmup = true;
  return run_offline(args, inputs, cfg);
}

RunResult run_portfolio_table1(const Args& args) {
  // tbk and scf alone take 26 of the suite's 40 s per sequential pass, so
  // they are left out to fit whole passes in a run; every other Table I
  // problem, dk16's anneal win included, stays.
  std::vector<Input> inputs;
  for (const std::string& name : table1_benchmarks()) {
    if (name == "tbk" || name == "scf") continue;
    ConstraintSet cs = derive_face_constraints(make_benchmark(name)).set;
    inputs.push_back({name, write_constraints(cs), false, 1});
  }
  Config cfg;
  cfg.portfolio.backend = portfolio::BackendKind::kPortfolio;
  cfg.portfolio.sat_max_conflicts = 2'000;
  cfg.tail_p = 0.75;
  cfg.never_worse_than_picola = true;
  return run_offline(args, inputs, cfg);
}

}  // namespace perfbench
