// The benchmark's three workloads. Each builds its system under test
// through a product entry point (DashDbLocal::Deploy or MppDatabase), hands
// the harness a SqlBackend to serve, and generates its clients' statement
// sequences from the seed. Why each exists: perfbench/README.md.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "server/backend.h"

namespace perfbench {

/// Layer timings of one setup (seconds; 0 where the layer is not used).
struct SetupTimes {
  double deploy_s = 0;      ///< DashDbLocal::Deploy / MppDatabase ctor
  double storage_load_s = 0;///< StarSchemaWorkload::Setup
  double mpp_load_s = 0;    ///< MppDatabase::Load
};

/// Layer numbers measured in process after the timed phase (trace runs).
struct LayerProbe {
  /// Per distinct statement text: its kind and parse/bind/drain timings.
  std::vector<std::pair<Kind, Decomposition>> decomposed;
  /// Parse timings of texts that are not decomposed (writes, MPP reads).
  std::vector<double> parse_s;
  double append_s_per_krow = 0;
  double route_s_per_krow = 0;
  /// MPP statements executed in process: Σ shard seconds, max shard
  /// seconds, and wall minus Σ shard seconds.
  std::vector<double> shard_sum_s, shard_max_s, coordinator_s;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Deploys, generates the seeded data and loads it.
  virtual Status Build(SetupTimes* times) = 0;
  /// Destroys what Build made (the server is already stopped).
  virtual void Teardown() = 0;
  virtual dashdb::SqlBackend* backend() = 0;

  /// Untimed, before the first phase: computes the expected results the
  /// statement checks compare against, executing each kind of statement
  /// once in process (which also warms the caches the timed phase uses).
  virtual Status Prepare() = 0;
  /// Resets state that a phase must start from (before each timed phase).
  virtual Status BeginPhase() { return Status::OK(); }
  /// Fresh clients for one timed phase (same sequences every phase).
  virtual std::vector<ClientSpec> Clients() = 0;
  /// Checks that need a whole round (the client logs of every phase run
  /// since the last Build).
  virtual Status FinalCheck(const std::vector<ClientLog>& logs) {
    (void)logs;
    return Status::OK();
  }
  /// Trace runs only, in the last round: in-process layer timings (may
  /// modify the data, so it runs after FinalCheck).
  virtual Status Probe(LayerProbe* out) = 0;
  /// Σ compressed bytes ÷ Σ raw bytes over every table (every shard).
  virtual double BytesPerUserByte() = 0;

  /// Provenance: intra-query DOP and shards (1 on a single engine).
  virtual int dop() const = 0;
  virtual int shards() const = 0;
};

/// "dashboard" or "etl"; null for anything else.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench
