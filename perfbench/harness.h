// Shared machinery of the benchmark: statement kinds, closed-loop wire
// clients, the tracing backend decorator, span storage, sample statistics
// and the in-process layer probes (parse / bind / drain).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "server/backend.h"
#include "sql/engine.h"

namespace perfbench {

class JsonWriter;

using dashdb::QueryResult;
using dashdb::Status;
using dashdb::Value;

using Clock = std::chrono::steady_clock;

/// Seconds since a fixed process-wide origin (span timestamps).
double Now();

// --- statements -------------------------------------------------------------

/// Statement classes; per-kind client and layer metrics are keyed by their
/// names.
enum class Kind { kAgg, kJoin, kTopN, kExport, kWrite, kTruncate, kVerify };
constexpr int kNumKinds = 7;
const char* KindName(Kind k);
/// Statements that return rows to the client (everything but writes and
/// TRUNCATE).
bool IsRead(Kind k);

/// One statement a client sends, with the check its reply must pass.
struct Stmt {
  Kind kind = Kind::kAgg;
  std::string sql;       ///< sent with Query (empty when `prepared` is set)
  std::string prepared;  ///< name registered with PREPARE on this connection
  std::vector<Value> params;
  int64_t rows_written = 0;
  /// Returns true when the reply is correct. Runs after the clock stops.
  std::function<bool(const QueryResult&)> check;
};

/// Produces one client's statements in order. Deterministic for a seed:
/// two runs with the same seed send the same sequence.
class StmtSource {
 public:
  virtual ~StmtSource() = default;
  virtual Stmt Next() = 0;
  /// Whether the statements sent so far form whole cycles of the source's
  /// pattern. A client stops only at a boundary, so every run measures the
  /// same mix whatever its length.
  virtual bool AtBoundary() const { return true; }
};

/// Order-sensitive FNV-1a over every cell's display text plus the shape.
uint64_t Checksum(const QueryResult& r);
/// Row count and the first rows of a result, for error reports.
std::string Describe(const QueryResult& r);

// --- samples ----------------------------------------------------------------

/// One completed statement as the client saw it.
struct Sample {
  Kind kind;
  bool ok;
  double send;   ///< client about to send (Now())
  double recv;   ///< client holds the full reply
  uint64_t rows; ///< rows received
  int64_t rows_written;
};

/// p in [0, 100]; linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);
/// How many samples lie strictly beyond percentile p of n samples.
inline double SamplesBeyond(size_t n, double p) { return n * (1 - p / 100); }

// --- tracing backend decorator ----------------------------------------------

/// Server-side interval of one statement: entry to and return from the
/// decorated BackendSession call.
struct ServerSpan {
  double begin;
  double end;
};

/// Wraps a SqlBackend; each session it hands out records the interval of
/// every Execute / ExecutePrepared call. Sessions are numbered in creation
/// order, which is connection order (the server creates a session per
/// accepted connection), so connecting clients one at a time pairs client
/// i with log i.
class TracingBackend : public dashdb::SqlBackend {
 public:
  explicit TracingBackend(dashdb::SqlBackend* inner) : inner_(inner) {}
  std::unique_ptr<dashdb::BackendSession> CreateSession() override;

  /// Copy of session `i`'s intervals (empty when it does not exist).
  std::vector<ServerSpan> Log(size_t i) const;

  struct SessionLog {
    mutable std::mutex mu;
    std::vector<ServerSpan> spans;
  };

 private:
  dashdb::SqlBackend* inner_;
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<SessionLog>> logs_;
};

// --- closed-loop clients ----------------------------------------------------

struct ClientSpec {
  std::unique_ptr<StmtSource> source;
  /// PREPAREs to issue once after connecting: (name, text).
  std::vector<std::pair<std::string, std::string>> prepares;
  /// Pause between a reply and the next statement (a closed loop with
  /// think time); 0 sends immediately.
  double think_s = 0;
};

struct ClientLog {
  std::vector<Sample> samples;
  std::string first_error;  ///< first failed statement, for the report
};

/// Connects every client in order, then runs each in its own thread as a
/// closed loop (next statement only after the previous reply and the
/// client's think time) for `seconds`, then on to its source's next cycle
/// boundary. Fails only when a connection or PREPARE cannot be made.
dashdb::Result<std::vector<ClientLog>> RunClients(
    int port, std::vector<ClientSpec> clients, double seconds);

// --- spans ------------------------------------------------------------------

/// A named interval. Spans of one statement share `stmt`; `parent` is the
/// index of the causing span in the same store (-1 for a root).
struct Span {
  uint64_t stmt;
  std::string name;
  double begin;
  double end;
  int64_t parent;
};

/// In-memory span store, written out once when the benchmark ends.
class SpanStore {
 public:
  int64_t Add(uint64_t stmt, std::string name, double begin, double end,
              int64_t parent);
  const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the part of it covered by the span's children.
  std::vector<double> SelfTimes() const;
  /// Writes the spans as a JSON array, each with its self time.
  void Write(JsonWriter* w) const;

 private:
  std::vector<Span> spans_;
};

// --- process ----------------------------------------------------------------

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// --- in-process layer probes ------------------------------------------------

/// Timings of one statement decomposed in process, against the same engine
/// the server fronts, with the bind options the engine would use.
struct Decomposition {
  double parse_s = 0;
  double bind_s = 0;
  double drain_s = 0;
  /// Operator kind -> self wall seconds (wall minus children's wall).
  std::map<std::string, double> self_s;
};

/// Median of `reps` parse/bind/drain timings of a SELECT text; self times
/// come from the drain whose time is the median.
dashdb::Result<Decomposition> Decompose(dashdb::Engine* engine,
                                        const std::string& sql, int reps);

/// Median seconds of `reps` ParseStatement calls on `sql`.
dashdb::Result<double> TimeParse(const std::string& sql, int reps);

}  // namespace perfbench
