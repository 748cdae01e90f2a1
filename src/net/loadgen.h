// Loadgen: a multi-connection client-side load generator for the TCP
// front end — the measuring half of tools/gvex_loadgen and the net bench.
//
// The caller supplies a weighted mix of requests (complete frames,
// typically rendered once against a local mirror service so each entry
// carries its EXPECTED response); each connection thread draws a seeded
// random sequence from the mix and drives it over one socket, pipelined
// up to `pipeline_depth` requests in flight. Two pacing modes:
//
//   target_qps == 0  closed-loop saturation: keep the pipeline full;
//                    latency is measured from the moment a request's
//                    bytes were handed to the kernel.
//   target_qps > 0   open-loop: requests become due on a fixed schedule
//                    (rate split evenly across connections) and latency
//                    is measured from the DUE time, so a stalling server
//                    honestly inflates the tail instead of silently
//                    slowing the arrival rate (no coordinated omission).
//
// Verification: entries with a non-empty `expect` must match the
// response byte-for-byte (reads against a stable store are
// deterministic); entries with `expect_prefix` need only the prefix
// (admit/save/stats responses embed a moving epoch). Mismatches count as
// divergences — the bench gates on zero.
//
// Responses are line-counted: every response is `expect_lines` lines
// (protocol responses have deterministic line counts given a stable
// store). An unexpected single-line "err ..." response resynchronizes
// the stream so one failure cannot misframe everything after it.

#ifndef GVEX_NET_LOADGEN_H_
#define GVEX_NET_LOADGEN_H_

#include <time.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace gvex {

/// One request of the workload mix, with its verification contract.
struct LoadgenRequest {
  std::string text;    ///< complete request frame(s), newline-terminated
  std::string expect;  ///< exact expected response ("" = prefix mode)
  /// Used when `expect` is empty; "" accepts any well-formed response.
  std::string expect_prefix;
  int expect_lines = 1;  ///< lines in the (non-err) response
  double weight = 1.0;   ///< relative draw weight within the mix
};

struct LoadgenOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  int connections = 8;
  int requests_per_conn = 256;
  int pipeline_depth = 8;
  double target_qps = 0;    ///< aggregate; 0 = saturation mode
  double timeout_sec = 60;  ///< per-connection no-progress abort
  unsigned seed = 1;        ///< per-connection streams use seed + index
};

struct LoadgenReport {
  uint64_t requests = 0;     ///< responses received
  uint64_t errors = 0;       ///< "err ..." responses
  uint64_t divergences = 0;  ///< responses violating expect/expect_prefix
  uint64_t aborted_connections = 0;  ///< connect failures / timeouts
  double elapsed_sec = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  /// Completed responses per verb (first word of the request frame) —
  /// the client-side half of the `--scrape` cross-check against the
  /// server's gvex_requests_total{verb=...} counters.
  std::map<std::string, uint64_t> responses_by_verb;
};

/// Runs the workload; blocks until every connection finishes or aborts.
/// Fails only on setup errors (no port, empty mix) — server-side trouble
/// shows up as errors/divergences/aborted_connections in the report.
Result<LoadgenReport> RunLoadgen(const LoadgenOptions& options,
                                 const std::vector<LoadgenRequest>& mix);

/// The open-loop wait before the next request falls due: `until_due_sec`
/// clamped to [0, 0.1] s, kept to the nanosecond. A whole-millisecond wait
/// would oversleep every sub-ms gap, and open-loop latency counts the
/// oversleep.
timespec OpenLoopWait(double until_due_sec);

/// Fetches one `metrics` scrape over its own blocking connection: sends
/// the verb, reads the "ok metrics <n>" header plus n exposition lines,
/// and returns the exposition text (header stripped). IOError on connect
/// failure, a malformed header, or `timeout_sec` without progress.
Result<std::string> FetchMetrics(const std::string& host, int port,
                                 double timeout_sec = 10);

}  // namespace gvex

#endif  // GVEX_NET_LOADGEN_H_
