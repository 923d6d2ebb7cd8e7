#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/query_context.h"
#include "report.h"
#include "server/client.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

using dashdb::Result;

double Now() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kAgg: return "agg";
    case Kind::kJoin: return "join";
    case Kind::kTopN: return "topn";
    case Kind::kExport: return "export";
    case Kind::kWrite: return "write";
    case Kind::kTruncate: return "truncate";
    case Kind::kVerify: return "verify";
  }
  return "?";
}

bool IsRead(Kind k) { return k != Kind::kWrite && k != Kind::kTruncate; }

uint64_t Checksum(const QueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
    h ^= 0xff;  // cell separator
    h *= 1099511628211ull;
  };
  mix(std::to_string(r.rows.num_columns()) + "x" +
      std::to_string(r.rows.num_rows()));
  for (size_t i = 0; i < r.rows.num_rows(); ++i) {
    for (const auto& col : r.rows.columns) mix(col.GetValue(i).ToString());
  }
  return h;
}

std::string Describe(const QueryResult& r) {
  std::string out = std::to_string(r.rows.num_rows()) + " rows";
  for (size_t i = 0; i < std::min<size_t>(3, r.rows.num_rows()); ++i) {
    out += i == 0 ? ": (" : ", (";
    for (size_t c = 0; c < r.rows.num_columns(); ++c) {
      if (c > 0) out += " ";
      out += r.rows.columns[c].GetValue(i).ToString();
    }
    out += ")";
  }
  return out;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

// --- tracing backend --------------------------------------------------------

namespace {

class TracingSession : public dashdb::BackendSession {
 public:
  TracingSession(std::unique_ptr<dashdb::BackendSession> inner,
                 std::shared_ptr<TracingBackend::SessionLog> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  Status SetDialect(dashdb::Dialect d) override {
    return inner_->SetDialect(d);
  }
  Result<QueryResult> Execute(const std::string& sql) override {
    const double begin = Now();
    auto r = inner_->Execute(sql);
    Record(begin, Now());
    return r;
  }
  Result<int> Prepare(const std::string& name,
                      const std::string& sql) override {
    return inner_->Prepare(name, sql);
  }
  Result<QueryResult> ExecutePrepared(const std::string& name,
                                      std::vector<Value> params) override {
    const double begin = Now();
    auto r = inner_->ExecutePrepared(name, std::move(params));
    Record(begin, Now());
    return r;
  }
  bool Cancel() override { return inner_->Cancel(); }

 private:
  void Record(double begin, double end) {
    std::lock_guard<std::mutex> lk(log_->mu);
    log_->spans.push_back(ServerSpan{begin, end});
  }

  std::unique_ptr<dashdb::BackendSession> inner_;
  std::shared_ptr<TracingBackend::SessionLog> log_;
};

}  // namespace

std::unique_ptr<dashdb::BackendSession> TracingBackend::CreateSession() {
  auto log = std::make_shared<SessionLog>();
  {
    std::lock_guard<std::mutex> lk(mu_);
    logs_.push_back(log);
  }
  return std::make_unique<TracingSession>(inner_->CreateSession(),
                                          std::move(log));
}

std::vector<ServerSpan> TracingBackend::Log(size_t i) const {
  std::shared_ptr<SessionLog> log;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (i >= logs_.size()) return {};
    log = logs_[i];
  }
  std::lock_guard<std::mutex> lk(log->mu);
  return log->spans;
}

// --- clients ----------------------------------------------------------------

Result<std::vector<ClientLog>> RunClients(int port,
                                          std::vector<ClientSpec> clients,
                                          double seconds) {
  std::vector<std::unique_ptr<dashdb::WireClient>> conns;
  for (ClientSpec& spec : clients) {
    auto c = std::make_unique<dashdb::WireClient>();
    DASHDB_RETURN_IF_ERROR(c->Connect(port));
    for (const auto& [name, text] : spec.prepares) {
      DASHDB_RETURN_IF_ERROR(c->Prepare(name, text).status());
    }
    conns.push_back(std::move(c));
  }
  std::vector<ClientLog> logs(clients.size());
  const double deadline = Now() + seconds;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      dashdb::WireClient* conn = conns[i].get();
      StmtSource* source = clients[i].source.get();
      const auto think = std::chrono::duration<double>(clients[i].think_s);
      ClientLog& log = logs[i];
      while (Now() < deadline || !source->AtBoundary()) {
        Stmt st = source->Next();
        const double send = Now();
        auto r = st.prepared.empty()
                     ? conn->Query(st.sql)
                     : conn->ExecutePrepared(st.prepared, st.params);
        const double recv = Now();
        bool ok = r.ok() && (!st.check || st.check(*r));
        if (!ok && log.first_error.empty()) {
          log.first_error =
              std::string(KindName(st.kind)) + ": " +
              (r.ok() ? "result check failed, got " + Describe(*r)
                      : r.status().ToString()) +
              " [" + (st.prepared.empty() ? st.sql.substr(0, 200)
                                          : "EXECUTE " + st.prepared) +
              "]";
        }
        log.samples.push_back(Sample{
            st.kind, ok, send, recv,
            r.ok() ? static_cast<uint64_t>(r->rows.num_rows()) : 0,
            st.rows_written});
        if (clients[i].think_s > 0) std::this_thread::sleep_for(think);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& c : conns) c->Close();
  return logs;
}

// --- spans ------------------------------------------------------------------

int64_t SpanStore::Add(uint64_t stmt, std::string name, double begin,
                       double end, int64_t parent) {
  spans_.push_back(Span{stmt, std::move(name), begin, end, parent});
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<double> SpanStore::SelfTimes() const {
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) kids[s.parent].emplace_back(s.begin, s.end);
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    // Union of the children's intervals, clipped to the parent.
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_b = 0, cur_e = -1;
    for (auto [b, e] : iv) {
      b = std::max(b, spans_[i].begin);
      e = std::min(e, spans_[i].end);
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[i] = (spans_[i].end - spans_[i].begin) - covered;
  }
  return self;
}

void SpanStore::Write(JsonWriter* w) const {
  const std::vector<double> self = SelfTimes();
  w->BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w->BeginObject();
    w->Key("id").Int(static_cast<int64_t>(i));
    w->Key("stmt").Int(static_cast<int64_t>(s.stmt));
    w->Key("name").String(s.name);
    w->Key("begin_s").Number(s.begin);
    w->Key("end_s").Number(s.end);
    w->Key("self_s").Number(self[i]);
    w->Key("parent").Int(s.parent);
    w->EndObject();
  }
  w->EndArray();
}

// --- process ----------------------------------------------------------------

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// --- in-process probes ------------------------------------------------------

Result<double> TimeParse(const std::string& sql, int reps) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double b = Now();
    auto st = dashdb::ParseStatement(sql);
    t.push_back(Now() - b);
    DASHDB_RETURN_IF_ERROR(st.status());
  }
  return Median(t);
}

namespace {

void CollectSelf(const dashdb::Operator* op,
                 std::map<std::string, double>* self) {
  double children = 0;
  for (const dashdb::Operator* c : op->children()) {
    children += c->metrics().wall_seconds;
    CollectSelf(c, self);
  }
  (*self)[op->kind()] += std::max(0.0, op->metrics().wall_seconds - children);
}

}  // namespace

Result<Decomposition> Decompose(dashdb::Engine* engine, const std::string& sql,
                                int reps) {
  auto session = engine->CreateSession();
  // The engine's own per-statement setup (Engine::ExecSelect): engine DOP
  // and pool on the session context and the scan options.
  const int dop = engine->EffectiveDop(*session);
  session->exec_ctx().pool = dop > 1 ? engine->exec_pool() : nullptr;
  session->exec_ctx().dop = dop;
  dashdb::BindOptions bopts;
  bopts.scan = engine->MakeScanOptions();
  bopts.scan.exec_pool = dop > 1 ? engine->exec_pool() : nullptr;
  bopts.scan.dop = dop;
  bopts.scan.shared_scan = session->shared_scan_enabled();

  std::vector<double> parse, bind, drain;
  std::vector<Decomposition> runs;
  for (int i = 0; i < reps; ++i) {
    Decomposition d;
    double t = Now();
    auto stmt = dashdb::ParseStatement(sql);
    parse.push_back(Now() - t);
    DASHDB_RETURN_IF_ERROR(stmt.status());
    if ((*stmt)->kind != dashdb::ast::StmtKind::kSelect) {
      return Status::InvalidArgument("not a SELECT: " + sql);
    }
    auto qctx = std::make_shared<dashdb::QueryContext>();
    dashdb::Binder binder(engine->catalog(), session.get(), bopts);
    t = Now();
    auto root = binder.BindSelect(*(*stmt)->select);
    bind.push_back(Now() - t);
    DASHDB_RETURN_IF_ERROR(root.status());
    dashdb::AttachQueryContext(root->get(), qctx.get());
    t = Now();
    DASHDB_RETURN_IF_ERROR((*root)->Open());
    dashdb::RowBatch batch;
    for (;;) {
      DASHDB_ASSIGN_OR_RETURN(bool more, (*root)->Next(&batch));
      if (!more) break;
    }
    d.drain_s = Now() - t;
    drain.push_back(d.drain_s);
    CollectSelf(root->get(), &d.self_s);
    runs.push_back(std::move(d));
  }
  // Keep the run whose drain time is the median; report median parse/bind.
  std::vector<size_t> order(runs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return runs[a].drain_s < runs[b].drain_s;
  });
  Decomposition out = runs[order[order.size() / 2]];
  out.parse_s = Median(parse);
  out.bind_s = Median(bind);
  return out;
}

}  // namespace perfbench
