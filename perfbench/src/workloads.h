// The phases every benchmark workload runs. Each builds its inputs from
// args.seed, measures for about args.seconds, checks its outputs, and
// returns the end-to-end metrics (args.trace == false) or the per-layer
// metrics (args.trace == true), with its set-up time in Result::setup_s.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// The explain phase over MUT-like molecules (large == false) or MAL-like
/// call graphs (large == true).
Result RunExplain(const Args& args, bool large);
/// The serve phases: reads alone, then reads beside admits and a reopen.
Result RunServeRead(const Args& args);
Result RunServeMixed(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
