// The benchmark's own TCP client for the serve workloads. One thread drives
// one connection, pipelined, and checks every response.
//
// Open loop: request i is due at start + i * interval. The thread sleeps
// with a nanosecond ppoll timeout and 1 ns timer slack, so it paces below
// a millisecond; latency is timed from the due time, and lateness (send
// time - due time) is recorded so a late generator shows instead of
// counting as server latency.
// Closed loop: keeps `depth` requests in flight until `stop`.

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// One request frame and what its response must be.
struct Request {
  std::string text;
  /// Exact expected response; when empty, the first line must start with
  /// `expect_prefix` and the response is one line.
  std::string expect;
  std::string expect_prefix;
  int expect_lines = 1;
  const char* span_name = "read";
};

/// Builds a read request whose expected response is `expect`.
Request ReadRequest(std::string text, std::string expect);

/// Per-connection outcome. Times are seconds.
struct ConnStats {
  std::vector<double> latency;   // response time - due time
  std::vector<double> lateness;  // send time - due time (open loop)
  std::vector<double> done_at;   // response time - loop start
  uint64_t sent = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  // divergent, err, or unanswered
  std::string error;
};

struct LoopPlan {
  /// Requests in send order (indices into the caller's request table).
  std::vector<const Request*> sequence;
  bool open_loop = true;
  double interval_s = 0;  // open loop: spacing of due times
  int depth = 8;          // closed loop: requests in flight
  Clock::time_point start;
  Clock::time_point stop;  // closed loop: stop sending at this time
  /// Called on the connection thread for each response, in order, with
  /// the request's position in `sequence`; returns false to mark the
  /// response failed (used for checks the expected text cannot express).
  std::function<bool(size_t, const std::string&)> on_response;
  SpanRecorder* spans = nullptr;
  int64_t request_id_base = 0;
};

/// Connects to 127.0.0.1:port; returns the fd or -1.
int ConnectTo(int port);

/// Drives `plan` over `fd` until every sent request is answered (or a
/// 20 s stall). Closes nothing; the caller owns `fd`.
ConnStats RunLoop(int fd, const LoopPlan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
