// The open-loop client's wait computation: sub-millisecond gaps must be
// waited to the nanosecond, not rounded up to a whole millisecond (the
// oversleep would be counted as server latency).

#include <gtest/gtest.h>

#include "net/loadgen.h"

namespace gvex {
namespace {

TEST(LoadgenPacingTest, SubMillisecondGapIsKept) {
  const timespec ts = OpenLoopWait(0.00025);
  EXPECT_EQ(ts.tv_sec, 0);
  EXPECT_EQ(ts.tv_nsec, 250'000);
}

TEST(LoadgenPacingTest, OverdueRequestDoesNotWait) {
  for (double gap : {0.0, -0.002, -5.0}) {
    const timespec ts = OpenLoopWait(gap);
    EXPECT_EQ(ts.tv_sec, 0);
    EXPECT_EQ(ts.tv_nsec, 0);
  }
}

TEST(LoadgenPacingTest, LongGapIsCappedAtOneHundredMilliseconds) {
  for (double gap : {0.1, 0.5, 30.0}) {
    const timespec ts = OpenLoopWait(gap);
    EXPECT_EQ(ts.tv_sec, 0);
    EXPECT_EQ(ts.tv_nsec, 100'000'000);
  }
}

}  // namespace
}  // namespace gvex
