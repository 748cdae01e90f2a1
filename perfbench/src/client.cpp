#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>

namespace perfbench {

Request ReadRequest(std::string text, std::string expect) {
  Request r;
  r.text = std::move(text);
  r.expect = std::move(expect);
  r.expect_lines = static_cast<int>(
      std::count(r.expect.begin(), r.expect.end(), '\n'));
  return r;
}

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

namespace {

struct InFlight {
  size_t index;
  Clock::time_point due;
  Clock::time_point sent;
};

constexpr auto kStallLimit = std::chrono::seconds(20);

}  // namespace

ConnStats RunLoop(int fd, const LoopPlan& plan) {
  ConnStats st;
  if (fd < 0) {
    std::fprintf(stderr, "perfbench: connect failed\n");
    st.failed = std::max<uint64_t>(1, plan.sequence.size());
    return st;
  }
  // Default timer slack (50 us) would make every paced wake-up late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);

  const size_t n = plan.sequence.size();
  auto due_of = [&](size_t i) {
    return plan.start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(plan.interval_s *
                                                          static_cast<double>(i)));
  };
  std::deque<InFlight> inflight;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  size_t in_pos = 0;  // start of the response being assembled
  size_t scan = 0;    // where the line scan resumes
  int lines = 0;      // complete lines of that response seen so far
  size_t next = 0;
  Clock::time_point last_progress = Clock::now();
  std::vector<char> buf(1 << 16);

  while (true) {
    Clock::time_point now = Clock::now();
    if (plan.open_loop) {
      while (next < n && due_of(next) <= now) {
        out += plan.sequence[next]->text;
        inflight.push_back({next, due_of(next), now});
        ++next;
      }
    } else {
      while (next < n && inflight.size() < static_cast<size_t>(plan.depth) &&
             now < plan.stop) {
        out += plan.sequence[next]->text;
        inflight.push_back({next, now, now});
        ++next;
      }
    }
    while (out_pos < out.size()) {
      const ssize_t w = ::send(fd, out.data() + out_pos, out.size() - out_pos,
                               MSG_NOSIGNAL);
      if (w > 0) {
        out_pos += static_cast<size_t>(w);
      } else if (w < 0 && (errno == EAGAIN || errno == EINTR)) {
        break;
      } else {
        st.error = std::string("send: ") + std::strerror(errno);
        break;
      }
    }
    if (!st.error.empty()) break;
    if (out_pos == out.size()) {
      out.clear();
      out_pos = 0;
    }
    const bool sending_done =
        next == n || (!plan.open_loop && now >= plan.stop);
    if (sending_done && inflight.empty()) break;
    if (now - last_progress > kStallLimit) {
      st.error = "no response for 20 s";
      break;
    }

    std::chrono::nanoseconds wait = std::chrono::milliseconds(100);
    if (plan.open_loop && next < n) {
      wait = std::max(std::chrono::nanoseconds(0),
                      std::min(wait, std::chrono::duration_cast<
                                         std::chrono::nanoseconds>(
                                         due_of(next) - now)));
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait.count() / 1000000000);
    ts.tv_nsec = static_cast<long>(wait.count() % 1000000000);
    pollfd p{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
    const int r = ::ppoll(&p, 1, &ts, nullptr);
    if (r <= 0 || (p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;

    const ssize_t got = ::recv(fd, buf.data(), buf.size(), 0);
    if (got == 0) {
      st.error = "server closed the connection";
      break;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EINTR) continue;
      st.error = std::string("recv: ") + std::strerror(errno);
      break;
    }
    in.append(buf.data(), static_cast<size_t>(got));
    const Clock::time_point done = Clock::now();

    while (!inflight.empty()) {
      const InFlight f = inflight.front();
      const Request& rq = *plan.sequence[f.index];
      const int need = rq.expect.empty() ? 1 : rq.expect_lines;
      bool complete = false;
      while (!complete) {
        const size_t nl = in.find('\n', scan);
        if (nl == std::string::npos) {
          scan = in.size();
          break;
        }
        scan = nl + 1;
        ++lines;
        complete = lines >= need ||
                   (lines == 1 && in.compare(in_pos, 4, "err ") == 0);
      }
      if (!complete) break;
      const std::string resp = in.substr(in_pos, scan - in_pos);
      bool ok = rq.expect.empty()
                    ? resp.compare(0, rq.expect_prefix.size(),
                                   rq.expect_prefix) == 0
                    : resp == rq.expect;
      if (ok && plan.on_response) ok = plan.on_response(f.index, resp);
      if (!ok) {
        ++st.failed;
        if (st.failed <= 3) {
          std::fprintf(stderr, "perfbench: divergent response to %.60s: %.200s",
                       rq.text.c_str(), resp.c_str());
        }
      }
      ++st.completed;
      st.latency.push_back(std::chrono::duration<double>(done - f.due).count());
      if (plan.open_loop) {
        st.lateness.push_back(
            std::chrono::duration<double>(f.sent - f.due).count());
      }
      st.done_at.push_back(
          std::chrono::duration<double>(done - plan.start).count());
      if (plan.spans != nullptr) {
        plan.spans->Add(rq.span_name, f.due, done, SpanRecorder::kNoParent,
                        plan.request_id_base + static_cast<int64_t>(f.index));
      }
      in_pos = scan;
      lines = 0;
      inflight.pop_front();
      last_progress = done;
    }
    if (in_pos == in.size()) {
      in.clear();
      in_pos = scan = 0;
    } else if (in_pos > (1u << 20)) {
      in.erase(0, in_pos);
      scan -= in_pos;
      in_pos = 0;
    }
  }
  st.sent = next;
  // Unanswered or unsent requests count as failed.
  st.failed += inflight.size() + (n - next) * (plan.open_loop ? 1 : 0);
  if (!st.error.empty()) {
    std::fprintf(stderr, "perfbench: connection error: %s\n",
                 st.error.c_str());
  }
  return st;
}

}  // namespace perfbench
