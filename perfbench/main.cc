// perfbench: the repository benchmark program. Runs one seeded workload
// against the product entry points served over the wire protocol, checks
// every reply, and prints its metrics. perfbench/run.py builds this binary
// and forwards its arguments; perfbench/README.md explains the workloads and
// what each metric should move.
//
//   perfbench --workload dashboard|etl --seed N --seconds S
//             --trace 0|1 [--out-dir DIR] [--commit C] [--source-digest D]
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs each round's timed
// slice untraced and then again behind the tracing backend decorator, runs
// the in-process layer probes after the last round, and prints the per-layer
// metrics. The last line of standard output is the result object; the line
// before it is the full report (provenance, sample counts, both metric
// sets).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>
#include <sys/prctl.h>

#include "common/metrics.h"
#include "deploy/autoconfig.h"
#include "deploy/hardware.h"
#include "harness.h"
#include "report.h"
#include "server/server.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// A run is this many rounds, each a fresh setup followed by an equal slice
// of the timed phase. Each setup lands the tables on different memory, and
// on the 4-core host the query latencies of one setup sat up to 20% apart
// from those of another; pooling rounds averages that out. setup_s is the
// median of the rounds' setups.
constexpr int kRounds = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::atof(v.c_str());
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--out-dir") a->out_dir = v;
    else if (k == "--commit") a->commit = v;
    else if (k == "--source-digest") a->source_digest = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

// Statement kinds with a per-kind layer metric, and the read shapes the
// in-process probes drain.
const Kind kLayerKinds[] = {Kind::kAgg, Kind::kJoin, Kind::kTopN,
                            Kind::kExport, Kind::kWrite};
const Kind kShapes[] = {Kind::kAgg, Kind::kJoin, Kind::kTopN};
const char* const kOperatorKinds[] = {"ColumnScan", "Filter", "HashJoin",
                                      "HashAggregate", "Sort",  "TopN",
                                      "Limit",      "Project"};

/// The timed phase of a run, pooled over its rounds: every client's
/// samples, the time measured, and the registry counters' deltas.
struct Phase {
  std::vector<ClientLog> logs;
  double seconds = 0;  ///< Σ over rounds of first send → last reply
  dashdb::MetricSnapshot delta;

  int64_t Delta(const std::string& name) const {
    auto it = delta.find(name);
    return it == delta.end() ? 0 : it->second;
  }
  std::vector<const Sample*> All() const {
    std::vector<const Sample*> out;
    for (const ClientLog& l : logs) {
      for (const Sample& s : l.samples) out.push_back(&s);
    }
    return out;
  }
};

double Ms(double s) { return s * 1000.0; }

/// Latencies (ms) of successful samples matching `pred`.
template <typename Pred>
std::vector<double> LatenciesMs(const Phase& p, Pred pred) {
  std::vector<double> out;
  for (const Sample* s : p.All()) {
    if (s->ok && pred(*s)) out.push_back(Ms(s->recv - s->send));
  }
  return out;
}

/// Highest supported tail: `p` when at least ten samples lie beyond it,
/// otherwise 0 (not reported).
double Tail(const std::vector<double>& v, double p) {
  return SamplesBeyond(v.size(), p) >= 10 ? Percentile(v, p) : 0;
}

/// Rows written ÷ time spent in writes (rows/s).
double LoadRowsPerS(const Phase& p) {
  double written = 0, busy = 0;
  for (const Sample* s : p.All()) {
    if (!s->ok || s->kind != Kind::kWrite) continue;
    written += static_cast<double>(s->rows_written);
    busy += s->recv - s->send;
  }
  return busy > 0 ? written / busy : 0;
}

/// The end-to-end metrics of one phase that depend on timing.
MetricList TimedMetrics(const Phase& p) {
  MetricList m;
  const auto all = p.All();
  uint64_t ok = 0;
  for (const Sample* s : all) ok += s->ok ? 1 : 0;
  m.Add("qps", ok / std::max(1e-9, p.seconds), "1/s", ok);

  auto reads = LatenciesMs(p, [](const Sample& s) { return IsRead(s.kind); });
  m.Add("read_p50_ms", Median(reads), "ms", reads.size());
  auto writes =
      LatenciesMs(p, [](const Sample& s) { return s.kind == Kind::kWrite; });
  m.Add("write_p50_ms", Median(writes), "ms", writes.size());
  m.Add("load_rows_per_s", LoadRowsPerS(p), "rows/s", writes.size());
  // Geometric mean over the kinds this workload sends of each kind's median.
  double log_sum = 0;
  int kinds = 0;
  uint64_t n = 0;
  for (int k = 0; k < kNumKinds; ++k) {
    auto v = LatenciesMs(
        p, [k](const Sample& s) { return static_cast<int>(s.kind) == k; });
    if (v.empty()) continue;
    log_sum += std::log(std::max(1e-6, Median(v)));
    ++kinds;
    n += v.size();
  }
  m.Add("stmt_geomean_ms", kinds > 0 ? std::exp(log_sum / kinds) : 0, "ms", n);
  return m;
}

/// Client-side figures of the untraced phase that are not end-to-end
/// metrics: per-kind medians, tails, and export throughput (0 where a
/// workload sends no such statements or the tail has too few samples).
void AddClientBreakdown(const Phase& p, MetricList* m) {
  for (Kind k : {Kind::kAgg, Kind::kJoin, Kind::kTopN}) {
    auto v = LatenciesMs(p, [k](const Sample& s) { return s.kind == k; });
    m->Add(std::string("client.") + KindName(k) + "_ms", Median(v), "ms",
           v.size());
  }
  auto reads = LatenciesMs(p, [](const Sample& s) { return IsRead(s.kind); });
  m->Add("client.read_p99_ms", Tail(reads, 99), "ms", reads.size());
  auto writes =
      LatenciesMs(p, [](const Sample& s) { return s.kind == Kind::kWrite; });
  m->Add("client.write_p99_ms", Tail(writes, 99), "ms", writes.size());
  double export_rows = 0, export_s = 0;
  uint64_t nexport = 0;
  for (const Sample* s : p.All()) {
    if (!s->ok || s->kind != Kind::kExport) continue;
    export_rows += static_cast<double>(s->rows);
    export_s += s->recv - s->send;
    ++nexport;
  }
  m->Add("client.export_rows_per_s", export_s > 0 ? export_rows / export_s : 0,
         "rows/s", nexport);
}

/// Per statement kind: count, median, p90 and max round trip (ms).
void WriteKindSummary(const Phase& p, JsonWriter* w) {
  w->BeginObject();
  for (int k = 0; k < kNumKinds; ++k) {
    auto v = LatenciesMs(
        p, [k](const Sample& s) { return static_cast<int>(s.kind) == k; });
    if (v.empty()) continue;
    w->Key(KindName(static_cast<Kind>(k))).BeginObject();
    w->Key("n").Int(static_cast<int64_t>(v.size()));
    w->Key("p50").Number(Median(v));
    w->Key("p90").Number(Percentile(v, 90));
    w->Key("max").Number(*std::max_element(v.begin(), v.end()));
    w->EndObject();
  }
  w->EndObject();
}

/// Runs one round's slice of the timed phase against a server fronting
/// `backend` and adds it to `phase`; returns the round's client logs.
dashdb::Result<std::vector<ClientLog>> RunPhase(Workload* w,
                                                dashdb::SqlBackend* backend,
                                                double seconds, Phase* phase) {
  DASHDB_RETURN_IF_ERROR(w->BeginPhase());
  dashdb::Server server(backend);
  DASHDB_RETURN_IF_ERROR(server.Start());
  const dashdb::MetricSnapshot before =
      dashdb::MetricRegistry::Global().Snapshot();
  const double begin = Now();
  auto logs = RunClients(server.port(), w->Clients(), seconds);
  const dashdb::MetricSnapshot after =
      dashdb::MetricRegistry::Global().Snapshot();
  server.Stop();
  DASHDB_RETURN_IF_ERROR(logs.status());
  double end = begin;
  for (const ClientLog& l : *logs) {
    for (const Sample& s : l.samples) end = std::max(end, s.recv);
  }
  phase->seconds += end - begin;
  for (const auto& [name, d] : dashdb::SnapshotDelta(before, after)) {
    phase->delta[name] += d;
  }
  phase->logs.insert(phase->logs.end(), logs->begin(), logs->end());
  return logs;
}

/// Pairs each client sample of a traced round with its server interval
/// and records the statement's spans: client round trip (root), dispatch
/// wait, backend execute, result transfer.
void BuildSpans(const std::vector<ClientLog>& logs,
                const TracingBackend& tracer, SpanStore* spans) {
  uint64_t stmt = spans->spans().size();
  for (size_t c = 0; c < logs.size(); ++c) {
    const std::vector<ServerSpan> server = tracer.Log(c);
    const auto& samples = logs[c].samples;
    for (size_t i = 0; i < samples.size(); ++i, ++stmt) {
      const Sample& s = samples[i];
      const int64_t root = spans->Add(
          stmt, std::string("client.") + KindName(s.kind), s.send, s.recv, -1);
      if (i >= server.size()) continue;
      const ServerSpan& sv = server[i];
      spans->Add(stmt, "server.dispatch_wait", s.send, sv.begin, root);
      spans->Add(stmt, "sql.execute", sv.begin, sv.end, root);
      spans->Add(stmt, "server.result_transfer", sv.end, s.recv, root);
    }
  }
}

/// The per-layer metrics of a trace run.
MetricList LayerMetrics(const std::vector<SetupTimes>& setups,
                        const Phase& untraced, const Phase& traced,
                        const SpanStore& spans, const LayerProbe& probe) {
  MetricList m;
  auto median_of = [&setups](double SetupTimes::*f) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*f);
    return Median(v);
  };
  m.Add("core.deploy_s", median_of(&SetupTimes::deploy_s), "s", setups.size());
  m.Add("storage.load_s", median_of(&SetupTimes::storage_load_s), "s",
        setups.size());
  m.Add("mpp.load_s", median_of(&SetupTimes::mpp_load_s), "s", setups.size());

  // Span-derived server and sql timings (traced phase).
  std::vector<double> wait;
  std::map<std::string, std::vector<double>> exec_ms, transfer_ms;
  const auto& all = spans.spans();
  std::string kind;
  for (const Span& s : all) {
    if (s.parent < 0) {
      kind = s.name.substr(std::string("client.").size());
      continue;
    }
    const double ms = Ms(s.end - s.begin);
    if (s.name == "server.dispatch_wait") wait.push_back(ms);
    if (s.name == "sql.execute") exec_ms[kind].push_back(ms);
    if (s.name == "server.result_transfer") transfer_ms[kind].push_back(ms);
  }
  m.Add("server.dispatch_wait_ms", Median(wait), "ms", wait.size());
  for (Kind k : kLayerKinds) {
    const auto& v = transfer_ms[KindName(k)];
    m.Add(std::string("server.result_transfer_ms.") + KindName(k), Median(v),
          "ms", v.size());
  }
  for (Kind k : kLayerKinds) {
    const auto& v = exec_ms[KindName(k)];
    m.Add(std::string("sql.execute_ms.") + KindName(k), Median(v), "ms",
          v.size());
  }

  // In-process decomposition.
  std::vector<double> parse = probe.parse_s, bind;
  std::map<Kind, std::vector<double>> drain;
  std::map<std::string, double> self;
  for (const auto& [k, d] : probe.decomposed) {
    parse.push_back(d.parse_s);
    bind.push_back(d.bind_s);
    drain[k].push_back(d.drain_s);
    for (const auto& [op, s] : d.self_s) self[op] += s;
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x;
    return v.empty() ? 0 : s / v.size();
  };
  m.Add("sql.parse_ms", Ms(mean(parse)), "ms", parse.size());
  m.Add("sql.bind_ms", Ms(mean(bind)), "ms", bind.size());

  const double hits = traced.Delta("server.plan_cache_hits");
  const double misses = traced.Delta("server.plan_cache_misses");
  m.Add("sql.plan_cache_hit_rate", hits + misses > 0 ? hits / (hits + misses)
                                                     : 0,
        "ratio", static_cast<uint64_t>(hits + misses));

  for (Kind k : kShapes) {
    m.Add(std::string("exec.drain_ms.") + KindName(k), Ms(mean(drain[k])),
          "ms", drain[k].size());
  }
  for (const char* op : kOperatorKinds) {
    m.Add(std::string("exec.self_ms.") + op, Ms(self[op]), "ms",
          probe.decomposed.size());
  }
  const auto samples = traced.All();
  const double stmts = std::max<double>(1, samples.size());
  double rows_returned = 0;
  for (const Sample* s : samples) rows_returned += static_cast<double>(s->rows);
  const double morsels = traced.Delta("exec.morsels");
  m.Add("exec.morsels_per_stmt", morsels / stmts, "count", samples.size());
  m.Add("exec.rows_returned_per_morsel",
        morsels > 0 ? rows_returned / morsels : 0, "ratio",
        static_cast<uint64_t>(morsels));
  m.Add("exec.rows_out_per_stmt", traced.Delta("exec.rows_out") / stmts,
        "count", samples.size());
  m.Add("exec.mem_charged_mb_per_stmt",
        traced.Delta("exec.mem_charged_bytes") / stmts / (1 << 20), "MB",
        samples.size());
  const double admitted = traced.Delta("exec.admission_admitted");
  m.Add("exec.admission_queued_frac",
        admitted > 0 ? traced.Delta("exec.admission_queued") / admitted : 0,
        "ratio", static_cast<uint64_t>(admitted));
  m.Add("storage.append_ms_per_krow", Ms(probe.append_s_per_krow), "ms",
        probe.append_s_per_krow > 0 ? 1 : 0);

  m.Add("mpp.shard_ms_sum", Ms(Median(probe.shard_sum_s)), "ms",
        probe.shard_sum_s.size());
  m.Add("mpp.shard_ms_max", Ms(Median(probe.shard_max_s)), "ms",
        probe.shard_max_s.size());
  m.Add("mpp.coordinator_ms", Ms(Median(probe.coordinator_s)), "ms",
        probe.coordinator_s.size());
  const double ex_bytes = traced.Delta("mpp.exchange_bytes");
  const double ex_comp = traced.Delta("mpp.exchange_compressed_bytes");
  m.Add("mpp.exchange_ratio", ex_bytes > 0 ? ex_comp / ex_bytes : 0, "ratio",
        static_cast<uint64_t>(traced.Delta("mpp.exchange_chunks")));
  m.Add("mpp.exchange_bytes_per_row",
        rows_returned > 0 ? ex_comp / rows_returned : 0, "B/row",
        static_cast<uint64_t>(rows_returned));
  m.Add("mpp.exchange_stalls_per_stmt", traced.Delta("mpp.exchange_stalls") /
                                            stmts,
        "count", samples.size());
  m.Add("mpp.route_ms_per_krow", Ms(probe.route_s_per_krow), "ms",
        probe.route_s_per_krow > 0 ? 1 : 0);

  AddClientBreakdown(untraced, &m);

  // Tracing overhead per timed end-to-end metric: how much worse the traced
  // phase read than the untraced one, in % (positive = tracing cost).
  const MetricList u = TimedMetrics(untraced), t = TimedMetrics(traced);
  for (const Metric& um : u.items()) {
    const Metric* tm = t.Find(um.name);
    double pct = 0;
    if (tm != nullptr && um.value > 0 && tm->value > 0) {
      pct = (um.unit == "ms" ? tm->value / um.value : um.value / tm->value) -
            1;
    }
    m.Add("trace.overhead." + um.name, pct * 100, "%", tm ? tm->samples : 0);
  }
  return m;
}

/// What every output records about the run that produced it.
struct Provenance {
  const Args* args;
  int nproc, autoconfig_dop, autoconfig_shards_per_node, dop, shards;
};

Provenance MakeProvenance(const Args& args, const Workload& w) {
  auto cfg = dashdb::ComputeAutoConfig(dashdb::DetectLocalHardware());
  return Provenance{&args,
                    static_cast<int>(std::thread::hardware_concurrency()),
                    cfg.ok() ? cfg->query_parallelism : 0,
                    cfg.ok() ? cfg->shards_per_node : 0,
                    w.dop(),
                    w.shards()};
}

void WriteProvenance(const Provenance& p, JsonWriter* w) {
  w->Key("workload").String(p.args->workload);
  w->Key("provenance").BeginObject();
  w->Key("seed").Int(static_cast<int64_t>(p.args->seed));
  w->Key("seconds").Number(p.args->seconds);
  w->Key("trace").Bool(p.args->trace);
  w->Key("nproc").Int(p.nproc);
  w->Key("autoconfig_dop").Int(p.autoconfig_dop);
  w->Key("autoconfig_shards_per_node").Int(p.autoconfig_shards_per_node);
  w->Key("dop").Int(p.dop);
  w->Key("shards").Int(p.shards);
  w->Key("commit").String(p.args->commit);
  w->Key("source_digest").String(p.args->source_digest);
  w->Key("build_type").String(PERFBENCH_BUILD_TYPE);
  w->EndObject();
}

int Run(const Args& args) {
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, args.seed);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  auto fail = [](const char* what, const Status& s) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    return 1;
  };

  // Rounds: setup (deploy + data generation + load + server start), the
  // untimed references, then this round's slice of the timed phase, traced
  // again when asked, and the round's whole-run checks.
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  Phase untraced, traced;
  SpanStore spans;
  LayerProbe probe;
  std::vector<std::string> errors;
  uint64_t checks = 0, failed_checks = 0;
  const double slice = args.seconds / kRounds;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      w->Teardown();
      malloc_trim(0);  // every round's setup starts from a trimmed heap
    }
    SetupTimes t;
    const double begin = Now();
    Status st = w->Build(&t);
    if (!st.ok()) return fail("setup", st);
    {
      dashdb::Server server(w->backend());
      st = server.Start();
      if (!st.ok()) return fail("server start", st);
      setup_s.push_back(Now() - begin);
    }
    setups.push_back(t);
    st = w->Prepare();
    if (!st.ok()) return fail("reference results", st);

    auto logs = RunPhase(w.get(), w->backend(), slice, &untraced);
    if (!logs.ok()) return fail("timed phase", logs.status());
    std::vector<ClientLog> round_logs = std::move(*logs);
    if (args.trace) {
      TracingBackend tracer(w->backend());
      auto traced_logs = RunPhase(w.get(), &tracer, slice, &traced);
      if (!traced_logs.ok()) return fail("traced phase", traced_logs.status());
      BuildSpans(*traced_logs, tracer, &spans);
      round_logs.insert(round_logs.end(), traced_logs->begin(),
                        traced_logs->end());
    }
    ++checks;
    st = w->FinalCheck(round_logs);
    if (!st.ok()) {
      ++failed_checks;
      errors.push_back("round " + std::to_string(round) +
                       " check: " + st.ToString());
    }
    if (args.trace && round == kRounds - 1) {
      const double pt = Now();
      st = w->Probe(&probe);
      if (!st.ok()) return fail("layer probes", st);
      spans.Add(spans.spans().size(), "probe.in_process", pt, Now(), -1);
    }
  }

  uint64_t attempted = checks, failed = failed_checks;
  for (const Phase* p : {&untraced, &traced}) {
    for (const ClientLog& l : p->logs) {
      attempted += l.samples.size();
      for (const Sample& s : l.samples) failed += s.ok ? 0 : 1;
      if (!l.first_error.empty()) errors.push_back(l.first_error);
    }
  }

  MetricList e2e;
  e2e.Add("setup_s", Median(setup_s), "s", setup_s.size());
  e2e.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
  const MetricList timed = TimedMetrics(untraced);
  for (const Metric& m : timed.items()) {
    e2e.Add(m.name, m.value, m.unit, m.samples);
  }
  e2e.Add("bytes_per_user_byte", w->BytesPerUserByte(), "B/B", 1);
  MetricList layers;
  std::string trace_file;
  if (args.trace) {
    layers = LayerMetrics(setups, untraced, traced, spans, probe);
  }
  const Provenance prov = MakeProvenance(args, *w);
  if (args.trace) {
    JsonWriter tw;
    tw.BeginObject();
    WriteProvenance(prov, &tw);
    tw.Key("spans");
    spans.Write(&tw);
    tw.EndObject();
    trace_file = args.out_dir + "/trace-" + args.workload + "-" +
                 std::to_string(args.seed) + ".json";
    std::ofstream f(trace_file);
    f << tw.str() << "\n";
    f.close();
    if (!f) return fail("trace output", Status::IOError(trace_file));
  }
  w->Teardown();

  const MetricList& result = args.trace ? layers : e2e;
  const bool correct = failed == 0 && e2e.AllFinite() && layers.AllFinite();

  JsonWriter report;
  report.BeginObject();
  report.Key("report").String("perfbench");
  WriteProvenance(prov, &report);
  report.Key("latency_by_kind_ms");
  WriteKindSummary(untraced, &report);
  report.Key("errors").BeginArray();
  for (const std::string& e : errors) report.String(e);
  report.EndArray();
  report.Key("end_to_end");
  e2e.WriteDetailed(&report);
  if (args.trace) {
    report.Key("per_layer");
    layers.WriteDetailed(&report);
    report.Key("trace_file").String(trace_file);
  }
  report.EndObject();
  std::printf("%s\n", report.str().c_str());

  JsonWriter out;
  out.BeginObject();
  out.Key("correct").Bool(correct);
  out.Key("attempted").Int(static_cast<int64_t>(attempted));
  out.Key("failed").Int(static_cast<int64_t>(failed));
  out.Key("metrics");
  result.WriteValues(&out);
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Transparent huge pages: khugepaged collapses the engine's large
  // allocations at unpredictable moments, which moved the per-setup latency
  // level of one seed's queries by up to 40%. Runs compare only without it.
  prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload dashboard|etl --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--commit C] "
                 "[--source-digest D]\n");
    return 2;
  }
  return perfbench::Run(args);
}
