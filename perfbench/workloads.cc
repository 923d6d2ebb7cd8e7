#include "workloads.h"

#include <algorithm>
#include <atomic>

#include "common/rng.h"
#include "core/dashdb.h"
#include "deploy/autoconfig.h"
#include "deploy/hardware.h"
#include "mpp/mpp.h"
#include "storage/column_table.h"
#include "workloads/star_schema.h"

namespace perfbench {

using dashdb::Rng;
using dashdb::RowBatch;
using dashdb::TypeId;

namespace {

// Sizes. Every statement's cost depends on these and not on the seed: the
// seed moves literals (range starts, cut-offs) inside fixed-width windows.
constexpr size_t kStarFactRows = 2000000;  // SALES rows (dashboard)
constexpr size_t kEtlFactRows = 1000000;   // FACT rows (etl)
constexpr int64_t kExportRows = 250000;    // rows per etl export
constexpr int64_t kEtlAggRows = 500000;    // ID window of the etl GROUP BY
constexpr int kEtlGroups = 50;             // distinct FACT.G values
constexpr int kInsertRows = 1000;          // rows per etl INSERT
constexpr int kDashWriteRows = 100;        // rows per dashboard INSERT
// Writer think time: bounds SALES growth to ~8% of its rows per 10 s,
// so reads see a growing tail without the writer owning the table.
constexpr double kWriterThinkS = 0.005;
// Reader think time: a dashboard user pauses between refreshes. Without it
// the three readers kept all four cores busy, and qps and latency moved
// with whatever else ran on the host (10% spread across runs).
constexpr double kReaderThinkS = 0.002;

/// Independent deterministic stream `stream` of a run's seed.
Rng Stream(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
             1);
}

std::string Int(int64_t v) { return std::to_string(v); }

std::shared_ptr<dashdb::ColumnTable> ColumnTableOf(dashdb::Engine* engine,
                                                   const std::string& name) {
  auto entry = engine->GetTable("PUBLIC", name);
  if (!entry.ok()) return nullptr;
  return std::dynamic_pointer_cast<dashdb::ColumnTable>((*entry)->storage);
}

/// Adds the compressed and raw bytes of `names` on `engine`.
void AddTableBytes(dashdb::Engine* engine,
                   const std::vector<std::string>& names, double* compressed,
                   double* raw) {
  for (const std::string& n : names) {
    auto t = ColumnTableOf(engine, n);
    if (t == nullptr) continue;
    *compressed += static_cast<double>(t->CompressedBytes());
    *raw += static_cast<double>(t->RawBytes());
  }
}

/// A statement text with the checksum every reply to it must carry.
struct FixedText {
  Kind kind;
  std::string sql;            ///< literal text (also the reference text)
  std::string prepared_name;  ///< non-empty: sent as EXECUTE with params
  std::string prepared_sql;
  std::vector<Value> params;
  uint64_t expect = 0;
};

FixedText Text(Kind kind, std::string sql) {
  FixedText t;
  t.kind = kind;
  t.sql = std::move(sql);
  return t;
}

/// A text sent as EXECUTE of `prepared_sql` with `params`; `sql` is the same
/// statement with the parameters spelled as literals.
FixedText PreparedText(Kind kind, std::string sql, std::string name,
                       std::string prepared_sql, std::vector<Value> params) {
  FixedText t = Text(kind, std::move(sql));
  t.prepared_name = std::move(name);
  t.prepared_sql = std::move(prepared_sql);
  t.params = std::move(params);
  return t;
}

Stmt FixedStmt(const FixedText& t) {
  Stmt s;
  s.kind = t.kind;
  if (t.prepared_name.empty()) {
    s.sql = t.sql;
  } else {
    s.prepared = t.prepared_name;
    s.params = t.params;
  }
  const uint64_t expect = t.expect;
  s.check = [expect](const QueryResult& r) { return Checksum(r) == expect; };
  return s;
}

const std::vector<std::string> kStarTables = {
    "SALES", "CUSTOMER", "PRODUCT", "STORE", "DATEDIM", "CATEGORY", "RETURNS"};

// --- dashboard --------------------------------------------------------------

class DashboardWorkload : public Workload {
 public:
  static constexpr int kReaders = 3;

  explicit DashboardWorkload(uint64_t seed) : seed_(seed) {
    Rng rng = Stream(seed, 2);
    auto start = [&rng](int64_t width) {
      return rng.Range(0, static_cast<int64_t>(kStarFactRows) - width);
    };
    const int64_t a1 = start(10000), a2 = start(20000), a3 = start(5000),
                  a4 = start(10000), a5 = start(10000), a7 = start(10000);
    const int64_t prod = rng.Range(0, 18999);
    const int64_t cust = rng.Range(0, 44999);
    // Every text is selective: SALES texts carry literal ID ranges that
    // synopsis skipping prunes, and the two prepared texts range over small
    // dimension tables (parameters are not pushed into scans, so a prepared
    // SALES range would scan all of SALES).
    repeated_ = {
        Text(Kind::kAgg,
             "SELECT COUNT(*), SUM(AMT), MIN(QTY), MAX(QTY) FROM SALES WHERE "
             "ID BETWEEN " + Int(a1) + " AND " + Int(a1 + 9999)),
        Text(Kind::kAgg,
             "SELECT QTY, COUNT(*), SUM(AMT) FROM SALES WHERE ID BETWEEN " +
                 Int(a2) + " AND " + Int(a2 + 19999) +
                 " GROUP BY QTY ORDER BY QTY"),
        Text(Kind::kAgg,
             "SELECT STORE_ID, SUM(AMT) FROM SALES WHERE ID BETWEEN " +
                 Int(a3) + " AND " + Int(a3 + 4999) +
                 " AND STORE_ID < 20 GROUP BY STORE_ID ORDER BY STORE_ID"),
        Text(Kind::kJoin,
             "SELECT S.REGION, COUNT(*), SUM(F.AMT) FROM SALES F JOIN STORE S "
             "ON F.STORE_ID = S.STORE_ID WHERE F.ID BETWEEN " +
                 Int(a4) + " AND " + Int(a4 + 9999) +
                 " AND S.REGION < 10 GROUP BY S.REGION ORDER BY S.REGION"),
        Text(Kind::kJoin,
             "SELECT D.MONTH, COUNT(*) FROM SALES F JOIN DATEDIM D ON "
             "F.DATE_ID = D.DATE_ID WHERE F.ID BETWEEN " +
                 Int(a5) + " AND " + Int(a5 + 9999) +
                 " GROUP BY D.MONTH ORDER BY D.MONTH"),
        PreparedText(
            Kind::kJoin,
            "SELECT C.KIND, COUNT(*), SUM(P.PRICE) FROM PRODUCT P JOIN "
            "CATEGORY C ON P.CAT_ID = C.CAT_ID WHERE P.PROD_ID BETWEEN " +
                Int(prod) + " AND " + Int(prod + 999) +
                " GROUP BY C.KIND ORDER BY C.KIND",
            "dim_join",
            "SELECT C.KIND, COUNT(*), SUM(P.PRICE) FROM PRODUCT P JOIN "
            "CATEGORY C ON P.CAT_ID = C.CAT_ID WHERE P.PROD_ID BETWEEN ? AND "
            "? GROUP BY C.KIND ORDER BY C.KIND",
            {Value::Int64(prod), Value::Int64(prod + 999)}),
        Text(Kind::kTopN,
             "SELECT ID, AMT FROM SALES WHERE ID BETWEEN " + Int(a7) +
                 " AND " + Int(a7 + 9999) + " ORDER BY AMT DESC, ID LIMIT 10"),
        PreparedText(
            Kind::kTopN,
            "SELECT CUST_ID, REGION FROM CUSTOMER WHERE CUST_ID BETWEEN " +
                Int(cust) + " AND " + Int(cust + 4999) +
                " ORDER BY REGION DESC, CUST_ID LIMIT 10",
            "dim_topn",
            "SELECT CUST_ID, REGION FROM CUSTOMER WHERE CUST_ID BETWEEN ? AND "
            "? ORDER BY REGION DESC, CUST_ID LIMIT 10",
            {Value::Int64(cust), Value::Int64(cust + 4999)}),
    };
  }

  Status Build(SetupTimes* times) override {
    next_id_ = static_cast<int64_t>(kStarFactRows);
    double t = Now();
    DASHDB_ASSIGN_OR_RETURN(db_, dashdb::DashDbLocal::Deploy());
    times->deploy_s = Now() - t;
    dashdb::bench::StarScale scale;
    scale.fact_rows = kStarFactRows;
    scale.seed = seed_;
    t = Now();
    DASHDB_RETURN_IF_ERROR(
        dashdb::bench::StarSchemaWorkload(scale).Setup(db_->engine()));
    times->storage_load_s = Now() - t;
    backend_ = std::make_unique<dashdb::EngineBackend>(db_->engine());
    return Status::OK();
  }

  void Teardown() override {
    backend_.reset();
    db_.reset();
  }

  dashdb::SqlBackend* backend() override { return backend_.get(); }

  double BytesPerUserByte() override {
    double c = 0, r = 0;
    AddTableBytes(db_->engine(), kStarTables, &c, &r);
    return r > 0 ? c / r : 0;
  }

  int dop() const override { return db_->engine()->query_parallelism(); }
  int shards() const override { return 1; }

  /// Expected checksum of each repeated text: one untimed in-process
  /// execution.
  Status Prepare() override {
    auto conn = db_->Connect("reference");
    for (FixedText& t : repeated_) {
      auto r = conn->Execute(t.sql);
      if (!r.ok()) {
        return Status::Internal("reference for [" + t.sql +
                                "]: " + r.status().ToString());
      }
      t.expect = Checksum(*r);
    }
    return Status::OK();
  }

  std::vector<ClientSpec> Clients() override;

  Status FinalCheck(const std::vector<ClientLog>& logs) override {
    int64_t written = 0;
    for (const ClientLog& log : logs) {
      for (const Sample& s : log.samples) {
        if (s.ok) written += s.rows_written;
      }
    }
    auto conn = db_->Connect("final-check");
    auto r = conn->Execute("SELECT COUNT(*) FROM SALES");
    if (!r.ok()) return r.status();
    const int64_t count = r->rows.columns[0].GetValue(0).AsInt();
    const int64_t expect = static_cast<int64_t>(kStarFactRows) + written;
    if (count != expect) {
      return Status::Internal("SALES holds " + Int(count) + " rows, expected " +
                              Int(expect));
    }
    return Status::OK();
  }

  Status Probe(LayerProbe* out) override {
    // Parse/bind/drain of each distinct text in process.
    std::vector<FixedText> texts = repeated_;
    texts.push_back(Text(Kind::kAgg, FreshSql(0)));
    for (const FixedText& t : texts) {
      DASHDB_ASSIGN_OR_RETURN(Decomposition d,
                              Decompose(db_->engine(), t.sql, 5));
      out->decomposed.emplace_back(t.kind, std::move(d));
    }
    // Append of the writer's batches straight into the SALES column table.
    auto sales = ColumnTableOf(db_->engine(), "SALES");
    if (sales == nullptr) return Status::Internal("SALES missing");
    Rng rng = Stream(seed_, 99);
    std::vector<double> per_krow;
    for (int b = 0; b < 10; ++b) {
      RowBatch rows;
      for (int c = 0; c < 7; ++c) rows.columns.emplace_back(TypeId::kInt64);
      for (int i = 0; i < kDashWriteRows; ++i) {
        rows.columns[0].AppendInt(next_id_++);
        for (int c = 1; c < 7; ++c) {
          rows.columns[c].AppendInt(static_cast<int64_t>(rng.Uniform(1000)));
        }
      }
      const double t = Now();
      DASHDB_RETURN_IF_ERROR(sales->Append(rows));
      per_krow.push_back((Now() - t) * 1000.0 / kDashWriteRows);
    }
    out->append_s_per_krow = Median(per_krow);
    return Status::OK();
  }

  /// A read whose literal is new every time (a plan-cache miss); its result
  /// follows from the dense IDs of the initial load.
  static std::string FreshSql(int64_t start) {
    return "SELECT COUNT(*), MIN(ID), MAX(ID) FROM SALES WHERE ID BETWEEN " +
           Int(start) + " AND " + Int(start + 9999);
  }

  /// IDs handed to inserted rows: above every read range, unique across
  /// the phases of a setup.
  std::atomic<int64_t> next_id_{static_cast<int64_t>(kStarFactRows)};

 private:
  const uint64_t seed_;
  std::unique_ptr<dashdb::DashDbLocal> db_;
  std::unique_ptr<dashdb::EngineBackend> backend_;
  std::vector<FixedText> repeated_;
};

class DashboardReader : public StmtSource {
 public:
  DashboardReader(const std::vector<FixedText>* repeated, Rng rng)
      : repeated_(repeated), rng_(rng) {}

  Stmt Next() override {
    if (rng_.Uniform(100) < 90) {
      return FixedStmt((*repeated_)[rng_.Uniform(repeated_->size())]);
    }
    const int64_t start =
        rng_.Range(0, static_cast<int64_t>(kStarFactRows) - 10000);
    Stmt s;
    s.kind = Kind::kAgg;
    s.sql = DashboardWorkload::FreshSql(start);
    s.check = [start](const QueryResult& r) {
      return r.rows.num_rows() == 1 && r.rows.num_columns() == 3 &&
             r.rows.columns[0].GetValue(0).AsInt() == 10000 &&
             r.rows.columns[1].GetValue(0).AsInt() == start &&
             r.rows.columns[2].GetValue(0).AsInt() == start + 9999;
    };
    return s;
  }

 private:
  const std::vector<FixedText>* repeated_;
  Rng rng_;
};

class DashboardWriter : public StmtSource {
 public:
  DashboardWriter(std::atomic<int64_t>* next_id, Rng rng)
      : next_id_(next_id), rng_(rng) {}

  Stmt Next() override {
    Stmt s;
    s.kind = Kind::kWrite;
    s.sql = "INSERT INTO SALES VALUES ";
    for (int i = 0; i < kDashWriteRows; ++i) {
      if (i > 0) s.sql += ", ";
      s.sql += "(" + Int(next_id_->fetch_add(1)) + ", " +
               Int(rng_.Range(0, 49999)) + ", " + Int(rng_.Range(0, 19999)) +
               ", " + Int(rng_.Range(0, 999)) + ", " +
               Int(rng_.Range(0, 1999)) + ", " + Int(rng_.Range(0, 9999)) +
               ", " + Int(rng_.Range(1, 10)) + ")";
    }
    s.rows_written = kDashWriteRows;
    s.check = [](const QueryResult& r) {
      return r.affected_rows == kDashWriteRows;
    };
    return s;
  }

 private:
  std::atomic<int64_t>* next_id_;
  Rng rng_;
};

std::vector<ClientSpec> DashboardWorkload::Clients() {
  std::vector<ClientSpec> c(kReaders + 1);
  for (int i = 0; i < kReaders; ++i) {
    c[i].source =
        std::make_unique<DashboardReader>(&repeated_, Stream(seed_, 10 + i));
    c[i].think_s = kReaderThinkS;
    for (const FixedText& t : repeated_) {
      if (!t.prepared_name.empty()) {
        c[i].prepares.emplace_back(t.prepared_name, t.prepared_sql);
      }
    }
  }
  c[kReaders].source =
      std::make_unique<DashboardWriter>(&next_id_, Stream(seed_, 20));
  c[kReaders].think_s = kWriterThinkS;
  return c;
}

// --- etl --------------------------------------------------------------------

/// The etl statement cycle: ten routed INSERTs with exports, distributed
/// GROUP BYs and a Top-N between them, then a LANDING check and TRUNCATE.
enum class EtlStep { kInsert, kExport, kAgg, kTopN, kVerify, kTruncate };
const EtlStep kEtlCycle[] = {
    EtlStep::kInsert, EtlStep::kInsert, EtlStep::kExport, EtlStep::kInsert,
    EtlStep::kInsert, EtlStep::kAgg,    EtlStep::kInsert, EtlStep::kInsert,
    EtlStep::kTopN,   EtlStep::kInsert, EtlStep::kInsert, EtlStep::kExport,
    EtlStep::kInsert, EtlStep::kInsert, EtlStep::kAgg,    EtlStep::kVerify,
    EtlStep::kTruncate};

class EtlWorkload;

class EtlSource : public StmtSource {
 public:
  EtlSource(const EtlWorkload* w, Rng rng) : w_(w), rng_(rng) {}
  Stmt Next() override;
  bool AtBoundary() const override {
    return step_ % std::size(kEtlCycle) == 0;
  }

 private:
  Stmt Insert();
  const EtlWorkload* w_;
  Rng rng_;
  size_t step_ = 0;
  int64_t next_id_ = 0;
  int64_t cycle_rows_ = 0;
  int64_t cycle_sum_ = 0;
};

class EtlWorkload : public Workload {
 public:
  explicit EtlWorkload(uint64_t seed) : seed_(seed) {
    hw_ = dashdb::DetectLocalHardware();
  }

  Status Build(SetupTimes* times) override {
    DASHDB_ASSIGN_OR_RETURN(dashdb::AutoConfig cfg,
                            dashdb::ComputeAutoConfig(hw_));
    shards_per_node_ = cfg.shards_per_node;
    dop_ = cfg.query_parallelism;
    double t = Now();
    db_ = std::make_unique<dashdb::MppDatabase>(
        2, cfg.shards_per_node, hw_.cores, hw_.ram_bytes,
        dashdb::ToEngineConfig(cfg));
    times->deploy_s = Now() - t;
    for (const char* name : {"FACT", "LANDING"}) {
      dashdb::TableSchema schema("PUBLIC", name,
                                 {{"ID", TypeId::kInt64, false, 0, false},
                                  {"G", TypeId::kInt64, true, 0, false},
                                  {"V", TypeId::kInt64, true, 0, false},
                                  {"S", TypeId::kVarchar, true, 0, false}});
      schema.set_distribution_key(0);
      DASHDB_RETURN_IF_ERROR(db_->CreateTable(schema));
    }
    Rng rng = Stream(seed_, 3);
    g_.resize(kEtlFactRows);
    v_.resize(kEtlFactRows);
    prefix_v_.assign(kEtlFactRows + 1, 0);
    RowBatch rows;
    rows.columns.emplace_back(TypeId::kInt64);
    rows.columns.emplace_back(TypeId::kInt64);
    rows.columns.emplace_back(TypeId::kInt64);
    rows.columns.emplace_back(TypeId::kVarchar);
    for (size_t i = 0; i < kEtlFactRows; ++i) {
      g_[i] = static_cast<int64_t>(rng.Uniform(kEtlGroups));
      v_[i] = static_cast<int64_t>(rng.Uniform(1000));
      prefix_v_[i + 1] = prefix_v_[i] + v_[i];
      rows.columns[0].AppendInt(static_cast<int64_t>(i));
      rows.columns[1].AppendInt(g_[i]);
      rows.columns[2].AppendInt(v_[i]);
      rows.columns[3].AppendString(Label(rng.Uniform(200)));
    }
    t = Now();
    DASHDB_RETURN_IF_ERROR(db_->Load("PUBLIC", "FACT", rows));
    times->mpp_load_s = Now() - t;
    backend_ = std::make_unique<dashdb::MppBackend>(db_.get());
    return Status::OK();
  }

  void Teardown() override {
    backend_.reset();
    db_.reset();
  }

  dashdb::SqlBackend* backend() override { return backend_.get(); }

  // Expected results follow from the generator arrays, per statement; one
  // statement of each read kind runs in process to warm the shards.
  Status Prepare() override {
    EtlSource source(this, Stream(seed_, 33));
    for (size_t i = 0; i < std::size(kEtlCycle); ++i) {
      Stmt s = source.Next();
      if (s.kind == Kind::kWrite || s.kind == Kind::kTruncate) continue;
      DASHDB_ASSIGN_OR_RETURN(dashdb::MppQueryResult r, db_->Execute(s.sql));
      if (s.kind != Kind::kVerify && !s.check(r.result)) {
        return Status::Internal("in-process result differs from the "
                                "generator: " + s.sql);
      }
    }
    return Status::OK();
  }

  Status BeginPhase() override {
    return db_->Execute("TRUNCATE TABLE LANDING").status();
  }

  std::vector<ClientSpec> Clients() override {
    std::vector<ClientSpec> c(1);
    c[0].source = std::make_unique<EtlSource>(this, Stream(seed_, 30));
    return c;
  }

  Status Probe(LayerProbe* out) override {
    EtlSource source(this, Stream(seed_, 31));
    // One statement of each kind through the coordinator, in process.
    std::vector<std::string> reads;
    while (reads.size() < 3) {
      Stmt s = source.Next();
      if (s.kind == Kind::kWrite && out->parse_s.empty()) {
        DASHDB_ASSIGN_OR_RETURN(double p, TimeParse(s.sql, 5));
        out->parse_s.push_back(p);
      }
      if (s.kind == Kind::kExport || s.kind == Kind::kTopN ||
          (s.kind == Kind::kAgg && reads.size() == 1)) {
        reads.push_back(s.sql);
      }
    }
    for (const std::string& sql : reads) {
      DASHDB_ASSIGN_OR_RETURN(double p, TimeParse(sql, 5));
      out->parse_s.push_back(p);
      for (int rep = 0; rep < 3; ++rep) {
        const double t = Now();
        DASHDB_ASSIGN_OR_RETURN(dashdb::MppQueryResult r, db_->Execute(sql));
        const double wall = Now() - t;
        double sum = 0, mx = 0;
        for (double s : r.shard_seconds) {
          sum += s;
          mx = std::max(mx, s);
        }
        out->shard_sum_s.push_back(sum);
        out->shard_max_s.push_back(mx);
        out->coordinator_s.push_back(std::max(0.0, wall - sum));
      }
    }
    // Routing (MppDatabase::Load) and storage append of 1000-row batches.
    Rng rng = Stream(seed_, 32);
    std::vector<double> route, append;
    for (int b = 0; b < 5; ++b) {
      RowBatch rows = LandingBatch(&rng, 1000000000 + b * kInsertRows);
      double t = Now();
      DASHDB_RETURN_IF_ERROR(db_->Load("PUBLIC", "LANDING", rows));
      route.push_back((Now() - t) * 1000.0 / kInsertRows);
      auto landing = ColumnTableOf(db_->shard_engine(0), "LANDING");
      if (landing == nullptr) return Status::Internal("LANDING missing");
      t = Now();
      DASHDB_RETURN_IF_ERROR(landing->Append(rows));
      append.push_back((Now() - t) * 1000.0 / kInsertRows);
    }
    out->route_s_per_krow = Median(route);
    out->append_s_per_krow = Median(append);
    return db_->Execute("TRUNCATE TABLE LANDING").status();
  }

  double BytesPerUserByte() override {
    double c = 0, r = 0;
    for (int s = 0; s < db_->num_shards(); ++s) {
      AddTableBytes(db_->shard_engine(s), {"FACT", "LANDING"}, &c, &r);
    }
    return r > 0 ? c / r : 0;
  }

  int dop() const override { return dop_; }
  int shards() const override { return 2 * shards_per_node_; }

  static std::string Label(uint64_t i) { return "label-" + Int(i); }

  static RowBatch LandingBatch(Rng* rng, int64_t first_id) {
    RowBatch rows;
    for (int c = 0; c < 3; ++c) rows.columns.emplace_back(TypeId::kInt64);
    rows.columns.emplace_back(TypeId::kVarchar);
    for (int i = 0; i < kInsertRows; ++i) {
      rows.columns[0].AppendInt(first_id + i);
      rows.columns[1].AppendInt(static_cast<int64_t>(rng->Uniform(kEtlGroups)));
      rows.columns[2].AppendInt(static_cast<int64_t>(rng->Uniform(1000)));
      rows.columns[3].AppendString(Label(rng->Uniform(200)));
    }
    return rows;
  }

  // Generator arrays (the expected results of every read).
  std::vector<int64_t> g_, v_, prefix_v_;

 private:
  uint64_t seed_;
  dashdb::HardwareProfile hw_;
  int shards_per_node_ = 1;
  int dop_ = 1;
  std::unique_ptr<dashdb::MppDatabase> db_;
  std::unique_ptr<dashdb::MppBackend> backend_;
};

Stmt EtlSource::Insert() {
  Stmt s;
  s.kind = Kind::kWrite;
  s.sql = "INSERT INTO LANDING VALUES ";
  for (int i = 0; i < kInsertRows; ++i) {
    const int64_t v = static_cast<int64_t>(rng_.Uniform(1000));
    if (i > 0) s.sql += ", ";
    s.sql += "(" + Int(next_id_++) + ", " +
             Int(static_cast<int64_t>(rng_.Uniform(kEtlGroups))) + ", " +
             Int(v) + ", '" + EtlWorkload::Label(rng_.Uniform(200)) + "')";
    cycle_sum_ += v;
  }
  cycle_rows_ += kInsertRows;
  s.rows_written = kInsertRows;
  s.check = [](const QueryResult& r) { return r.affected_rows == kInsertRows; };
  return s;
}

Stmt EtlSource::Next() {
  const EtlStep step = kEtlCycle[step_++ % std::size(kEtlCycle)];
  const EtlWorkload* w = w_;
  const int64_t n = static_cast<int64_t>(w->v_.size());
  Stmt s;
  switch (step) {
    case EtlStep::kInsert:
      return Insert();
    case EtlStep::kExport: {
      const int64_t a = rng_.Range(0, n - kExportRows);
      s.kind = Kind::kExport;
      s.sql = "SELECT ID, G, V, S FROM FACT WHERE ID BETWEEN " + Int(a) +
              " AND " + Int(a + kExportRows - 1);
      const int64_t sum = w->prefix_v_[a + kExportRows] - w->prefix_v_[a];
      s.check = [sum](const QueryResult& r) {
        if (r.rows.num_rows() != static_cast<size_t>(kExportRows) ||
            r.rows.num_columns() != 4) {
          return false;
        }
        int64_t got = 0;
        const auto& v = r.rows.columns[2];
        for (size_t i = 0; i < v.size(); ++i) got += v.GetInt(i);
        return got == sum;
      };
      return s;
    }
    case EtlStep::kAgg: {
      const int64_t a = rng_.Range(0, n - kEtlAggRows);
      s.kind = Kind::kAgg;
      s.sql = "SELECT G, COUNT(*), SUM(V) FROM FACT WHERE ID BETWEEN " +
              Int(a) + " AND " + Int(a + kEtlAggRows - 1) +
              " GROUP BY G ORDER BY G";
      std::vector<int64_t> cnt(kEtlGroups, 0), sum(kEtlGroups, 0);
      for (int64_t i = a; i < a + kEtlAggRows; ++i) {
        cnt[w->g_[i]]++;
        sum[w->g_[i]] += w->v_[i];
      }
      s.check = [cnt, sum](const QueryResult& r) {
        size_t row = 0;
        for (int g = 0; g < kEtlGroups; ++g) {
          if (cnt[g] == 0) continue;
          if (row >= r.rows.num_rows() || r.rows.num_columns() != 3 ||
              r.rows.columns[0].GetValue(row).AsInt() != g ||
              r.rows.columns[1].GetValue(row).AsInt() != cnt[g] ||
              r.rows.columns[2].GetValue(row).AsDouble() !=
                  static_cast<double>(sum[g])) {
            return false;
          }
          ++row;
        }
        return row == r.rows.num_rows();
      };
      return s;
    }
    case EtlStep::kTopN: {
      const int64_t g = rng_.Range(0, kEtlGroups - 1);
      s.kind = Kind::kTopN;
      s.sql = "SELECT ID, V FROM FACT WHERE G = " + Int(g) +
              " ORDER BY V DESC, ID LIMIT 100";
      std::vector<std::pair<int64_t, int64_t>> top;  // (-V, ID)
      for (int64_t i = 0; i < n; ++i) {
        if (w->g_[i] == g) top.emplace_back(-w->v_[i], i);
      }
      const size_t k = std::min<size_t>(100, top.size());
      std::partial_sort(top.begin(), top.begin() + k, top.end());
      top.resize(k);
      s.check = [top](const QueryResult& r) {
        if (r.rows.num_rows() != top.size() || r.rows.num_columns() != 2) {
          return false;
        }
        for (size_t i = 0; i < top.size(); ++i) {
          if (r.rows.columns[0].GetValue(i).AsInt() != top[i].second ||
              r.rows.columns[1].GetValue(i).AsInt() != -top[i].first) {
            return false;
          }
        }
        return true;
      };
      return s;
    }
    case EtlStep::kVerify: {
      s.kind = Kind::kVerify;
      s.sql = "SELECT COUNT(*), SUM(V) FROM LANDING";
      const int64_t rows = cycle_rows_, sum = cycle_sum_;
      s.check = [rows, sum](const QueryResult& r) {
        return r.rows.num_rows() == 1 && r.rows.num_columns() == 2 &&
               r.rows.columns[0].GetValue(0).AsInt() == rows &&
               r.rows.columns[1].GetValue(0).AsDouble() ==
                   static_cast<double>(sum);
      };
      return s;
    }
    case EtlStep::kTruncate:
      s.kind = Kind::kTruncate;
      s.sql = "TRUNCATE TABLE LANDING";
      cycle_rows_ = 0;
      cycle_sum_ = 0;
      return s;
  }
  return s;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "dashboard") return std::make_unique<DashboardWorkload>(seed);
  if (name == "etl") return std::make_unique<EtlWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
