#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

void Result::Fail(const std::string& what, uint64_t count) {
  failed += count;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

int SpanRecorder::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point now = Clock::now();
  spans_.push_back({name, now, now, parent, -1});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::End(int id) {
  if (!enabled_ || id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = Clock::now();
}

void SpanRecorder::Add(const std::string& name, Clock::time_point start,
                       Clock::time_point end, int parent,
                       int64_t request_id) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, end, parent, request_id});
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_us\":" << us(s.start) << ",\"end_us\":" << us(s.end)
        << ",\"parent\":" << s.parent << ",\"request_id\":" << s.request_id
        << "}\n";
  }
  return static_cast<bool>(out);
}

Scrape ParseScrape(const std::string& text) {
  Scrape out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

namespace {

bool FamilyMatches(const std::string& series, const std::string& family) {
  if (series.compare(0, family.size(), family) != 0) return false;
  return series.size() == family.size() || series[family.size()] == '{';
}

}  // namespace

double ScrapeSumWhere(const Scrape& s, const std::string& family,
                      const std::string& label_filter) {
  double total = 0;
  for (const auto& [series, value] : s) {
    if (!FamilyMatches(series, family)) continue;
    if (!label_filter.empty() &&
        series.find(label_filter) == std::string::npos) {
      continue;
    }
    total += value;
  }
  return total;
}

bool MakeDirs(const std::string& path, bool fresh) {
  std::error_code ec;
  if (fresh) std::filesystem::remove_all(path, ec);
  std::filesystem::create_directories(path, ec);
  return std::filesystem::is_directory(path);
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
