#include "counting_model.h"

#include <chrono>

namespace perfbench {

namespace {
// Nesting depth of inference calls on this thread: GcnModel::Predict and
// ProbaOf call PredictProba virtually, which lands here again.
thread_local int infer_depth = 0;
}  // namespace

class InferScope {
 public:
  explicit InferScope(const CountingGcn* model)
      : model_(model), outer_(infer_depth++ == 0) {
    if (outer_) start_ = std::chrono::steady_clock::now();
  }
  ~InferScope() {
    --infer_depth;
    if (!outer_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    model_->calls_.fetch_add(1, std::memory_order_relaxed);
    model_->nanos_.fetch_add(static_cast<uint64_t>(ns),
                             std::memory_order_relaxed);
  }
  InferScope(const InferScope&) = delete;
  InferScope& operator=(const InferScope&) = delete;

 private:
  const CountingGcn* model_;
  bool outer_;
  std::chrono::steady_clock::time_point start_;
};

std::vector<float> CountingGcn::PredictProba(const gvex::Graph& g) const {
  InferScope scope(this);
  return gvex::GcnModel::PredictProba(g);
}

int CountingGcn::Predict(const gvex::Graph& g) const {
  InferScope scope(this);
  return gvex::GcnModel::Predict(g);
}

float CountingGcn::ProbaOf(const gvex::Graph& g, int label) const {
  InferScope scope(this);
  return gvex::GcnModel::ProbaOf(g, label);
}

gvex::Matrix CountingGcn::NodeEmbeddings(const gvex::Graph& g) const {
  embedding_calls_.fetch_add(1, std::memory_order_relaxed);
  InferScope scope(this);
  return gvex::GcnModel::NodeEmbeddings(g);
}

}  // namespace perfbench
