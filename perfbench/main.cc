// The serving benchmark (README.md). One run sets up a workload from its
// seed, drives CategorizationService::Handle with closed-loop clients for
// --seconds, checks every distinct signature against the oracle, and
// prints one JSON line of metrics. --trace 1 adds the traced per-layer
// replay and prints the per-layer metrics instead.
//
//   autocat_perfbench --workload sessions --seed 1 --seconds 10 --trace 0
//   autocat_perfbench --workload cold-strata --seed 1 --record s.txt
//   autocat_perfbench --replay s.txt --seconds 10 --trace 0
//   autocat_perfbench --selftest

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/cost_model.h"
#include "core/probability.h"
#include "exec/simd_kernels.h"
#include "simgen/homes_generator.h"
#include "simgen/study.h"
#include "simgen/workload_generator.h"
#include "store/store.h"
#include "store/writer.h"
#include "workload/counts.h"

namespace perfbench {
namespace {

using autocat::CategorizationService;
using autocat::ServeRequest;
using autocat::ServiceOptions;
using autocat::Table;

// The paper's M and x (Section 6): categories above M rows are split, and
// attributes used by fewer than x of the logged queries are dropped.
constexpr size_t kMaxLeafRows = 20;
constexpr double kUsageThreshold = 0.4;
constexpr int kSetupRepeats = 3;
constexpr size_t kVerifyThreads = 4;

const double kProcessStart = NowS();

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scratch = ".";
  std::string record;
  std::string replay;
  // A/B variants for re-measuring earlier claims (README.md).
  std::string variant = "default";
  bool selftest = false;
};

// Everything one set-up produces.
struct World {
  Inputs in;
  std::unique_ptr<OracleTable> oracle;
  Table table;  // pristine copy: the source of every refresh
  std::vector<std::string> log_sql;
  autocat::Workload log;
  ServiceOptions options;
  std::unique_ptr<CategorizationService> service;
  double setup_s = 0;
  // Set-up layers, each measured once.
  double generate_s = 0;
  double store_write_s = 0;
  double store_open_ms = 0;
  double store_bytes_per_row = 0;
  double stream_s = 0;  // the benchmark's own query generation
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile over sorted samples.
double Quantile(const std::vector<float>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * double(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

ServiceOptions MakeOptions(const Inputs& in, const std::string& variant) {
  ServiceOptions options;
  options.categorizer = autocat::DefaultStudyConfig().categorizer;
  options.categorizer.max_tuples_per_category = kMaxLeafRows;
  options.categorizer.attribute_usage_threshold = kUsageThreshold;
  options.stats.split_intervals = SplitIntervals();
  options.max_concurrent = in.clients;
  options.use_pipeline = variant != "legacy-chain";
  return options;
}

Status BuildService(World* w, Table table) {
  autocat::Database db;
  AUTOCAT_RETURN_IF_ERROR(db.RegisterTable("ListProperty", std::move(table)));
  w->service = std::make_unique<CategorizationService>(
      std::move(db), w->log, w->options);
  // Warm-up: the per-table WorkloadStats and the columnar shadow are
  // built here, in set-up, by a request that bypasses the cache.
  ServeRequest warm;
  warm.sql = w->in.stream.front();
  warm.bypass_cache = true;
  return w->service->Handle(warm).status();
}

// One complete set-up: generate (or write and map) the table, the query
// log and the request stream, then start and warm the service.
Status Setup(const Args& args, const Inputs* recorded, double start,
             World* w) {
  const autocat::Geography geo = autocat::Geography::UnitedStates();
  if (recorded != nullptr) {
    w->in = *recorded;
  } else {
    AUTOCAT_ASSIGN_OR_RETURN(w->in, DefineWorkload(args.workload, args.seed));
  }
  Inputs& in = w->in;
  if (args.variant == "unsorted") in.sort_by.clear();
  w->oracle = std::make_unique<OracleTable>();
  autocat::HomesGeneratorConfig gen_config;
  gen_config.num_rows = in.table_rows;
  gen_config.seed = in.table_seed;
  const autocat::HomesGenerator generator(&geo, gen_config);
  if (!in.store) {
    const double t0 = NowS();
    AUTOCAT_ASSIGN_OR_RETURN(w->table, generator.Generate());
    w->generate_s += NowS() - t0;
    for (size_t r = 0; r < w->table.num_rows(); ++r) {
      w->oracle->Append(w->table.row(r));
    }
  } else {
    const std::string path = args.scratch + "/perfbench-" +
                             std::to_string(getpid()) + ".store";
    autocat::StoreWriterOptions writer_options;
    if (!in.sort_by.empty()) writer_options.sort_columns = {in.sort_by};
    AUTOCAT_ASSIGN_OR_RETURN(auto writer,
                             autocat::StoreWriter::Create(path, writer_options));
    AUTOCAT_ASSIGN_OR_RETURN(const autocat::Schema schema,
                             autocat::HomesGenerator::ListPropertySchema());
    double sink_s = 0;
    double oracle_s = 0;
    const double t0 = NowS();
    AUTOCAT_RETURN_IF_ERROR(writer->BeginTable("ListProperty", schema));
    AUTOCAT_RETURN_IF_ERROR(
        generator.StreamRows([&](std::vector<autocat::Row> rows) -> Status {
          const double s0 = NowS();
          for (const autocat::Row& row : rows) w->oracle->Append(row);
          const double s1 = NowS();
          for (autocat::Row& row : rows) {
            AUTOCAT_RETURN_IF_ERROR(writer->Append(std::move(row)));
          }
          oracle_s += s1 - s0;
          sink_s += NowS() - s1;
          return Status::OK();
        }));
    const double t1 = NowS();
    AUTOCAT_RETURN_IF_ERROR(writer->FinishTable());
    AUTOCAT_RETURN_IF_ERROR(writer->Finish());
    const double t2 = NowS();
    w->generate_s += (t1 - t0) - sink_s - oracle_s;
    w->store_write_s = sink_s + (t2 - t1);
    w->store_bytes_per_row = static_cast<double>(writer->stats().file_bytes) /
                             static_cast<double>(in.table_rows);
    writer.reset();
    AUTOCAT_ASSIGN_OR_RETURN(const autocat::SegmentStore store,
                             autocat::SegmentStore::Open(path));
    AUTOCAT_ASSIGN_OR_RETURN(w->table, store.OpenTable("ListProperty"));
    w->store_open_ms = (NowS() - t2) * 1e3;
    std::error_code ignored;
    std::filesystem::remove(path, ignored);  // the mapping stays valid
  }
  w->oracle->Finish();

  {
    const double t0 = NowS();
    autocat::WorkloadGeneratorConfig log_config;
    log_config.num_queries = in.log_queries;
    log_config.seed = in.log_seed;
    w->log_sql = autocat::WorkloadGenerator(&geo, log_config).GenerateSql();
    w->generate_s += NowS() - t0;
    w->log = autocat::Workload::Parse(w->log_sql, w->table.schema(), nullptr);
  }
  if (recorded == nullptr) {
    const double t0 = NowS();
    AUTOCAT_RETURN_IF_ERROR(GenerateStream(&in, *w->oracle, geo));
    w->stream_s = NowS() - t0;
  }
  w->options = MakeOptions(in, args.variant);
  AUTOCAT_RETURN_IF_ERROR(BuildService(w, w->table));
  w->setup_s = NowS() - start;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Closed loop

struct LoopResult {
  std::vector<float> latency_ms;
  std::vector<double> done_s;  // completion times since start, sorted
  size_t requests = 0;
  size_t refreshes = 0;
  size_t failed = 0;
  double elapsed_s = 0;
  std::vector<double> put_table_ms;
  // Requests each client completed, and the answer digest per stream
  // index.
  std::vector<size_t> progress;
  std::vector<Digest> digests;
  std::string error;  // first failure or inconsistency
  size_t inconsistent = 0;
};

// Runs `clients` closed-loop clients (zero think time) for `seconds`, or
// until `max_requests` when non-zero. With one client the stream is taken
// in order with refreshes at the same stream positions as with many.
LoopResult RunLoop(const World& w, CategorizationService* service,
                   size_t clients, double seconds, size_t max_requests) {
  const Inputs& in = w.in;
  LoopResult out;
  out.progress.assign(clients, 0);
  std::vector<std::vector<Digest>> digests(
      clients, std::vector<Digest>(in.stream.size()));
  std::vector<std::vector<float>> latency(clients);
  std::vector<std::vector<double>> done_s(clients);
  std::vector<size_t> failed(clients, 0);
  std::vector<size_t> inconsistent(clients, 0);
  std::mutex error_mu;
  const size_t stride = clients;
  const size_t refresh_period = clients == 1
                                    ? in.refresh_every * in.clients
                                    : in.refresh_every;
  const double start = NowS();
  const double deadline = start + seconds;
  const auto note = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (out.error.empty()) out.error = message;
  };
  const auto client = [&](size_t c) {
    std::vector<float>& lat = latency[c];
    lat.reserve(1 << 18);
    size_t done = 0;
    for (;;) {
      const size_t position = c + done * stride;
      if (in.distinct && position >= in.stream.size()) break;
      if (max_requests > 0 && position >= max_requests) break;
      if (NowS() >= deadline) break;
      if (c == 0 && refresh_period > 0 && done > 0 &&
          done % refresh_period == 0) {
        Table copy = w.table;
        const double t0 = NowS();
        service->PutTable("ListProperty", std::move(copy));
        out.put_table_ms.push_back((NowS() - t0) * 1e3);
      }
      const size_t index = position % in.stream.size();
      ServeRequest request;
      request.sql = in.stream[index];
      const int64_t t0 = NowNs();
      auto response = service->Handle(request);
      const int64_t t1 = NowNs();
      lat.push_back(static_cast<float>(double(t1 - t0) / 1e6));
      done_s[c].push_back(NowS() - start);
      ++done;
      if (!response.ok()) {
        ++failed[c];
        note("request failed: " + response.status().ToString());
        continue;
      }
      if (in.distinct && response->cache_hit) {
        ++inconsistent[c];
        note("distinct-signature request answered from the cache: " +
             request.sql);
      }
      Digest& digest = digests[c][index];
      const Digest now{static_cast<uint32_t>(response->payload->result_rows()),
                       static_cast<uint32_t>(
                           response->payload->tree().num_nodes()),
                       true};
      if (!digest.seen) {
        digest = now;
      } else if (digest.rows != now.rows || digest.nodes != now.nodes) {
        ++inconsistent[c];
        note("two answers differ for: " + request.sql);
      }
    }
    out.progress[c] = done;
  };
  std::vector<std::thread> threads;
  for (size_t c = 1; c < clients; ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& t : threads) t.join();
  out.elapsed_s = NowS() - start;
  for (size_t c = 0; c < clients; ++c) {
    out.latency_ms.insert(out.latency_ms.end(), latency[c].begin(),
                          latency[c].end());
    out.done_s.insert(out.done_s.end(), done_s[c].begin(), done_s[c].end());
    out.requests += out.progress[c];
    out.failed += failed[c];
    out.inconsistent += inconsistent[c];
  }
  // Clients that wrapped onto each other's stream indices must agree.
  out.digests.assign(in.stream.size(), Digest{});
  for (size_t c = 0; c < clients; ++c) {
    for (size_t i = 0; i < in.stream.size(); ++i) {
      const Digest& d = digests[c][i];
      Digest& merged = out.digests[i];
      if (!d.seen) continue;
      if (!merged.seen) {
        merged = d;
      } else if (merged.rows != d.rows || merged.nodes != d.nodes) {
        ++out.inconsistent;
        if (out.error.empty()) {
          out.error = "two answers differ for: " + in.stream[i];
        }
      }
    }
  }
  std::sort(out.done_s.begin(), out.done_s.end());
  out.refreshes = out.put_table_ms.size();
  return out;
}

// Requests per throughput block: one stratified round (at least 200
// requests) for the distinct workloads, one refresh cycle for sessions.
size_t ThroughputBlock(const Inputs& in) {
  if (in.distinct || in.refresh_every == 0) {
    return in.round * ((200 + in.round - 1) / in.round);
  }
  return in.refresh_every * in.clients;
}

// Completion rate of each consecutive block of `block` completions: a
// stall from outside the process moves one block, not their median.
std::vector<double> BlockRates(const LoopResult& r, size_t block) {
  const std::vector<double>& t = r.done_s;
  std::vector<double> rates;
  for (size_t end = block; end <= t.size(); end += block) {
    const double from = end == block ? 0.0 : t[end - block - 1];
    const double span = t[end - 1] - from;
    if (span > 0) rates.push_back(double(block) / span);
  }
  return rates;
}

// ---------------------------------------------------------------------------
// Verification

struct Verdict {
  std::string error;
  // Estimated CostAll per canonical signature, and the signature of each
  // verified stream index.
  std::map<std::string, double> cost;
  std::map<size_t, std::string> signature_of;
  // Digest of the oracle-checked answer per SQL text.
  std::map<std::string, Digest> digest_of_sql;
};

// Serves every distinct SQL of `indices` again, after the timed run, and
// checks one answer per canonical signature with the oracle; every timed
// answer is compared with it by digest. Workloads with repeats also check
// that a cache hit returns the tree of the miss that filled the cache.
Verdict Verify(World& w, const std::vector<Digest>& timed,
               const std::vector<size_t>& indices) {
  Verdict v;
  const Inputs& in = w.in;
  if (!in.distinct) {
    w.service->PutTable("ListProperty", Table(w.table));  // start cold
  }
  std::map<std::string, size_t> first_index;
  for (const size_t i : indices) first_index.emplace(in.stream[i], i);
  std::vector<std::pair<std::string, size_t>> work(first_index.begin(),
                                                   first_index.end());
  const std::vector<std::string> candidates =
      CandidateAttributes(w.log_sql, kUsageThreshold);
  autocat::ParallelOptions sequential;
  sequential.threads = 1;
  auto stats = autocat::WorkloadStats::Build(w.log, w.table.schema(),
                                             w.options.stats, sequential);
  if (!stats.ok()) {
    v.error = "workload stats: " + stats.status().ToString();
    return v;
  }

  std::mutex mu;
  // Fingerprint of the oracle-checked answer per signature; the first
  // worker to see a signature checks it.
  std::map<std::string, uint64_t> owners;
  std::vector<std::pair<std::string, uint64_t>> followers;  // sig, print
  std::atomic<size_t> next{0};
  const auto fail = [&](const std::string& message) {
    std::lock_guard<std::mutex> lock(mu);
    if (v.error.empty()) v.error = message;
  };
  const auto worker = [&] {
    for (;;) {
      const size_t k = next.fetch_add(1);
      if (k >= work.size()) return;
      const std::string& sql = work[k].first;
      ServeRequest request;
      request.sql = sql;
      auto response = w.service->Handle(request);
      if (!response.ok()) {
        fail("verification request failed: " + response.status().ToString());
        continue;
      }
      const autocat::CachedCategorization& answer = *response->payload;
      const Digest digest{static_cast<uint32_t>(answer.result_rows()),
                          static_cast<uint32_t>(answer.tree().num_nodes()),
                          true};
      bool owner = false;
      {
        std::lock_guard<std::mutex> lock(mu);
        v.signature_of[work[k].second] = response->signature;
        v.digest_of_sql[sql] = digest;
        owner = owners.emplace(response->signature, 0).second;
      }
      const uint64_t print = AnswerFingerprint(answer);
      if (!owner) {
        std::lock_guard<std::mutex> lock(mu);
        followers.push_back({response->signature, print});
        continue;
      }
      const auto spec = ParseSpec(sql);
      if (!spec.ok()) {
        fail("oracle cannot read: " + sql);
        continue;
      }
      const std::string verdict =
          CheckAnswer(*w.oracle, *spec, answer, kMaxLeafRows, candidates);
      if (!verdict.empty()) fail(verdict + " -- for: " + sql);
      const autocat::ProbabilityEstimator estimator(&stats.value(),
                                                    &answer.result().schema());
      const autocat::CostModel model(&estimator,
                                     w.options.categorizer.cost_params);
      const double cost = model.CostAll(answer.tree());
      if (!in.distinct) {
        auto again = w.service->Handle(request);
        if (!again.ok() || !again->cache_hit) {
          fail("a repeated request missed the cache: " + sql);
        } else if (AnswerFingerprint(*again->payload) != print) {
          fail("a cache hit returned another tree than its miss: " + sql);
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      owners[response->signature] = print;
      v.cost[response->signature] = cost;
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kVerifyThreads; ++t) threads.emplace_back(worker);
  for (std::thread& t : threads) t.join();
  if (!v.error.empty()) return v;
  for (const auto& [sig, print] : followers) {
    if (owners[sig] != print) {
      v.error = "two SQL texts of one signature got different answers";
      return v;
    }
  }
  for (const size_t i : indices) {
    const Digest& a = timed[i];
    const Digest& b = v.digest_of_sql[in.stream[i]];
    if (a.seen && (a.rows != b.rows || a.nodes != b.nodes)) {
      v.error = "a timed answer differs from the verified one for: " +
                in.stream[i];
      return v;
    }
  }
  return v;
}

// Stream indices answered during `r`.
std::vector<size_t> Served(const LoopResult& r) {
  std::vector<size_t> out;
  for (size_t i = 0; i < r.digests.size(); ++i) {
    if (r.digests[i].seen) out.push_back(i);
  }
  return out;
}

// Canonical signatures answered during `r`; on the distinct workloads only
// those of whole rounds, so the mix of strata is the same in every run.
std::set<std::string> WholeRoundSignatures(
    const Inputs& in, const LoopResult& r,
    const std::map<size_t, std::string>& signature_of) {
  size_t prefix = in.stream.size();
  if (in.distinct) {
    const size_t least =
        *std::min_element(r.progress.begin(), r.progress.end());
    prefix = least * r.progress.size();
    if (prefix >= in.round) prefix -= prefix % in.round;
  }
  std::set<std::string> signatures;
  for (const auto& [index, sig] : signature_of) {
    if (index < prefix) signatures.insert(sig);
  }
  return signatures;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::string Json(const std::map<std::string, double>& fields) {
  std::string out = "{";
  for (const auto& [k, v] : fields) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.6g", v);
    out += (out.size() > 1 ? ", \"" : "\"") + k + "\": " + value;
  }
  return out + "}";
}

// ---------------------------------------------------------------------------
// Modes

// Each of the kSetupRepeats set-ups is followed by its own timed part of
// `--seconds / kSetupRepeats` on a fresh service, with the same inputs.
// Latencies and block rates are pooled over the parts, so one run samples
// several memory placements and a longer stretch of the host's speed than
// a single loop would. The oracle checks each SQL text once, in the part
// that first served it; later parts' answers must match its digest.
int RunEndToEnd(const Args& args, const Inputs* recorded) {
  std::vector<double> setups;
  std::vector<float> sorted;
  std::vector<double> rates;
  std::map<std::string, double> cost;     // per verified signature
  std::map<size_t, std::string> signature_of;
  std::map<std::string, Digest> verified;  // per SQL text
  std::map<std::string, double> cost_of;  // whole-round signatures
  size_t requests = 0, refreshes = 0, failed = 0, inconsistent = 0;
  size_t hits = 0, misses = 0, evictions = 0, coalesced = 0;
  double elapsed_s = 0, verify_s = 0, peak_rss = 0;
  std::string error;
  bool oracle_ok = true;
  World w;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    w = World();
    const double start = rep == 0 ? kProcessStart : NowS();
    const Status status = Setup(args, recorded, start, &w);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setups.push_back(w.setup_s);
    const LoopResult run = RunLoop(w, w.service.get(), w.in.clients,
                                   args.seconds / kSetupRepeats, 0);
    // Serving only: later parts repeat the first, and verification is
    // not part of what a user waits for.
    if (rep == 0) peak_rss = PeakRssMb();
    const autocat::ServiceMetricsSnapshot snapshot =
        w.service->SnapshotMetrics();
    std::vector<size_t> fresh;
    for (const size_t i : Served(run)) {
      const auto it = verified.find(w.in.stream[i]);
      if (it == verified.end()) {
        fresh.push_back(i);
      } else if (it->second.rows != run.digests[i].rows ||
                 it->second.nodes != run.digests[i].nodes) {
        ++inconsistent;
        if (error.empty()) {
          error = "two set-ups answered differently for: " + w.in.stream[i];
        }
      }
    }
    const double v0 = NowS();
    const Verdict verdict =
        fresh.empty() ? Verdict() : Verify(w, run.digests, fresh);
    verify_s += NowS() - v0;
    verified.insert(verdict.digest_of_sql.begin(),
                    verdict.digest_of_sql.end());
    cost.insert(verdict.cost.begin(), verdict.cost.end());
    signature_of.insert(verdict.signature_of.begin(),
                        verdict.signature_of.end());

    sorted.insert(sorted.end(), run.latency_ms.begin(), run.latency_ms.end());
    const std::vector<double> part = BlockRates(run, ThroughputBlock(w.in));
    if (part.size() >= 3) {
      rates.insert(rates.end(), part.begin(), part.end());
    } else {
      rates.push_back(double(run.requests) / run.elapsed_s);
    }
    for (const std::string& sig :
         WholeRoundSignatures(w.in, run, signature_of)) {
      const auto it = cost.find(sig);
      if (it != cost.end()) cost_of[sig] = it->second;
    }
    requests += run.requests;
    refreshes += run.refreshes;
    failed += run.failed;
    inconsistent += run.inconsistent;
    elapsed_s += run.elapsed_s;
    hits += snapshot.by_outcome[0];
    misses += snapshot.by_outcome[1];
    evictions += snapshot.cache.evictions;
    coalesced += snapshot.coalesced_hits;
    if (!verdict.error.empty()) oracle_ok = false;
    if (error.empty()) error = run.error.empty() ? verdict.error : run.error;
  }
  const int selftest = OracleSelfTest();

  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() < 1000) {
    std::fprintf(stderr,
                 "warning: %zu timed requests leave fewer than ten beyond "
                 "p99\n",
                 sorted.size());
  }
  if (selftest != 0 && error.empty()) error = "oracle self-test failed";
  const bool correct = oracle_ok && inconsistent == 0 && selftest == 0;
  if (!error.empty()) std::fprintf(stderr, "check: %s\n", error.c_str());
  double cost_sum = 0;
  for (const auto& [sig, cost] : cost_of) cost_sum += cost;
  std::fprintf(
      stderr, "detail %s\n",
      Json({{"requests", double(requests)},
            {"refreshes", double(refreshes)},
            {"run_rps", double(requests) / elapsed_s},
            {"elapsed_s", elapsed_s},
            {"verify_s", verify_s},
            {"distinct_signatures", double(cost_of.size())},
            {"hits", double(hits)},
            {"misses", double(misses)},
            {"cache_evictions", double(evictions)},
            {"coalesced_hits", double(coalesced)},
            {"setup_min_s", *std::min_element(setups.begin(), setups.end())},
            {"setup_generate_s", w.generate_s},
            {"setup_store_write_s", w.store_write_s},
            {"setup_stream_s", w.stream_s},
            {"setup_max_s", *std::max_element(setups.begin(), setups.end())},
            {"latency_p90_ms", Quantile(sorted, 0.90)},
            {"latency_max_ms", sorted.empty() ? 0 : sorted.back()}})
          .c_str());
  PrintResult(correct, requests + refreshes, failed,
              {{"setup_s", Median(setups), "s"},
               {"throughput_rps", Median(rates), "1/s"},
               {"latency_p50_ms", Quantile(sorted, 0.50), "ms"},
               {"latency_p99_ms", Quantile(sorted, 0.99), "ms"},
               {"peak_rss_mb", peak_rss, "MiB"},
               {"tree_cost_all_mean",
                cost_of.empty() ? 0 : cost_sum / double(cost_of.size()),
                "items"}});
  return 0;
}

int RunTraced(const Args& args, const Inputs* recorded) {
  World w;
  Status status = Setup(args, recorded, kProcessStart, &w);
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return 1;
  }
  const double share = args.seconds / 3;
  // A: the workload as timed end to end, for the counters the service
  // publishes and the PutTable times.
  const LoopResult a =
      RunLoop(w, w.service.get(), w.in.clients, share, 0);
  const autocat::ServiceMetricsSnapshot snap = w.service->SnapshotMetrics();
  const Verdict verdict = Verify(w, a.digests, Served(a));

  // B: one untraced client on a fresh service; C: the traced replay of
  // the same requests.
  status = BuildService(&w, w.table);
  if (!status.ok()) {
    std::fprintf(stderr, "service: %s\n", status.ToString().c_str());
    return 1;
  }
  const LoopResult b = RunLoop(w, w.service.get(), 1, share, 0);
  w.service.reset();

  Tracer tracer;
  ReplayStats replay;
  status = TracedReplay(w.in, w.table, w.log, w.options, b.requests, &tracer,
                        &replay);
  if (!status.ok()) {
    std::fprintf(stderr, "traced replay: %s\n", status.ToString().c_str());
    return 1;
  }
  const std::string trace_path = args.scratch + "/trace-" + w.in.workload +
                                 "-seed" + std::to_string(w.in.seed) + ".tsv";
  status = WriteSpans(tracer.spans(), trace_path);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
  }
  const std::map<std::string, SpanTotals> totals = Aggregate(tracer.spans());
  const auto mean_self = [&](const char* name, double scale) {
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.count == 0) return 0.0;
    return it->second.self_ns / double(it->second.count) * scale;
  };
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
  std::string error = a.error.empty() ? verdict.error : a.error;
  if (error.empty()) error = b.error;
  size_t replay_mismatch = 0;
  for (size_t i = 0; i < replay.digests.size(); ++i) {
    const Digest& r = replay.digests[i];
    const Digest& s = b.digests[i];
    if (r.seen && s.seen && (r.rows != s.rows || r.nodes != s.nodes)) {
      ++replay_mismatch;
    }
  }
  if (replay_mismatch > 0 && error.empty()) {
    error = "the traced replay answered differently from the service";
  }
  const int selftest = OracleSelfTest();
  const bool correct = verdict.error.empty() && a.inconsistent == 0 &&
                       b.inconsistent == 0 && replay_mismatch == 0 &&
                       selftest == 0;
  if (!error.empty()) std::fprintf(stderr, "check: %s\n", error.c_str());

  std::vector<double> b_ms(b.latency_ms.begin(), b.latency_ms.end());
  const double untraced = Median(b_ms);
  const double traced = Median(replay.request_ms);
  const double probes = double(snap.cache.hits + snap.cache.misses);
  const double built = double(replay.pipelines);
  // Self time of every span, as a share of the replay's request time
  // (README.md, "Per-layer figures").
  std::map<std::string, double> shares;
  const double request_ns = totals.count("request") ? totals.at("request").total_ns : 0;
  for (const auto& [name, t] : totals) {
    if (name != "request") shares[name] = per(t.self_ns, request_ns);
  }
  std::fprintf(stderr, "shares %s\n", Json(shares).c_str());
  std::fprintf(stderr, "spans written to %s (%zu spans)\n",
               trace_path.c_str(), tracer.spans().size());
  PrintResult(
      correct, a.requests + a.refreshes + b.requests + replay.request_ms.size(),
      a.failed + b.failed,
      {{"sql.parse_us", mean_self("sql.parse", 1e-3), "us"},
       {"signature.canonicalize_us", mean_self("signature.canonicalize", 1e-3),
        "us"},
       {"cache.probe_us", mean_self("cache.probe", 1e-3), "us"},
       {"cache.hit_ratio", per(double(snap.cache.hits), probes), "ratio"},
       {"coalesce.followers", double(snap.coalesced_hits), "count"},
       {"admission.queue_high_water", double(snap.queue_depth_high_water),
        "count"},
       {"cache.bytes_per_entry", per(replay.entry_bytes, built), "bytes"},
       {"cache.evictions", double(snap.cache.evictions), "count"},
       {"cache.insert_us", mean_self("cache.insert", 1e-3), "us"},
       {"serve.put_table_ms", Median(a.put_table_ms), "ms"},
       {"workload.stats_build_ms", mean_self("workload.stats_build", 1e-6),
        "ms"},
       {"columnar.shadow_build_ms", mean_self("columnar.shadow_build", 1e-6),
        "ms"},
       {"exec.compile_us", mean_self("exec.compile", 1e-3), "us"},
       {"exec.pipeline_ms", mean_self("exec.pipeline", 1e-6), "ms"},
       {"exec.filter_ms", per(replay.filter_ms, built), "ms"},
       {"exec.gather_ms", per(replay.gather_ms, built), "ms"},
       {"exec.attr_index_ms", per(replay.attr_index_ms, built), "ms"},
       {"exec.morsels_pruned_ratio", per(double(replay.pruned), double(replay.morsels)),
        "ratio"},
       {"exec.morsels_all_pass_ratio",
        per(double(replay.all_pass), double(replay.morsels)), "ratio"},
       {"exec.simd_morsel_ratio", per(double(replay.simd), double(replay.morsels)),
        "ratio"},
       {"exec.rows_scanned_per_result_row",
        per(replay.rows_scanned, replay.result_rows), "ratio"},
       {"core.categorize_ms", mean_self("core.categorize", 1e-6), "ms"},
       {"core.categorize_ns_per_row",
        per(totals.count("core.categorize") ? totals.at("core.categorize").self_ns : 0,
            replay.result_rows),
        "ns"},
       {"core.tree_nodes", per(replay.tree_nodes, built), "count"},
       {"store.write_s", w.store_write_s, "s"},
       {"store.open_ms", w.store_open_ms, "ms"},
       {"store.bytes_per_row", w.store_bytes_per_row, "bytes"},
       {"simgen.generate_s", w.generate_s, "s"},
       {"trace.overhead_pct", per(traced - untraced, untraced) * 100, "%"}});
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value());
    } else if (flag == "--trace") {
      args.trace = std::stoi(value());
    } else if (flag == "--scratch") {
      args.scratch = value();
    } else if (flag == "--record") {
      args.record = value();
    } else if (flag == "--replay") {
      args.replay = value();
    } else if (flag == "--variant") {
      args.variant = value();
    } else if (flag == "--selftest") {
      args.selftest = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.selftest) return OracleSelfTest();
  if (args.variant != "default" && args.variant != "legacy-chain" &&
      args.variant != "scalar" && args.variant != "unsorted") {
    std::fprintf(stderr, "unknown variant %s\n", args.variant.c_str());
    return 2;
  }
  if (args.variant == "scalar") autocat::simd::ForceScalarForTest(true);
  std::filesystem::create_directories(args.scratch);

  Inputs recorded;
  const Inputs* from_file = nullptr;
  if (!args.replay.empty()) {
    auto read = ReadInputs(args.replay);
    if (!read.ok()) {
      std::fprintf(stderr, "%s\n", read.status().ToString().c_str());
      return 1;
    }
    recorded = std::move(read).value();
    from_file = &recorded;
  } else if (args.workload.empty()) {
    std::fprintf(stderr, "--workload or --replay is required\n");
    return 2;
  }
  if (!args.record.empty()) {
    World w;
    const Status status = Setup(args, nullptr, NowS(), &w);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    const Status written = WriteInputs(w.in, args.record);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "recorded %zu requests of %s (seed %llu) to %s\n",
                 w.in.stream.size(), w.in.workload.c_str(),
                 static_cast<unsigned long long>(w.in.seed),
                 args.record.c_str());
    return 0;
  }
  return args.trace != 0 ? RunTraced(args, from_file)
                         : RunEndToEnd(args, from_file);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {  // malformed flag values, I/O
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
