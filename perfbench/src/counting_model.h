// A GcnModel that counts and times its black-box inference calls, for the
// traced run. It subclasses GcnModel rather than wrapping GnnClassifier:
// NodeInfluence::Compute picks the exact-Jacobian influence only for a
// GcnModel (dynamic_cast), so a wrapper would silently switch the explain
// phase to random-walk influence.

#ifndef PERFBENCH_COUNTING_MODEL_H_
#define PERFBENCH_COUNTING_MODEL_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "gnn/gcn_model.h"

namespace perfbench {

class CountingGcn : public gvex::GcnModel {
 public:
  explicit CountingGcn(const gvex::GcnModel& trained)
      : gvex::GcnModel(trained) {}

  std::vector<float> PredictProba(const gvex::Graph& g) const override;
  int Predict(const gvex::Graph& g) const override;
  float ProbaOf(const gvex::Graph& g, int label) const override;
  gvex::Matrix NodeEmbeddings(const gvex::Graph& g) const override;

  /// Outermost inference calls so far (a Predict that calls PredictProba
  /// counts once) and the seconds they took, summed over threads.
  uint64_t calls() const { return calls_.load(); }
  double seconds() const { return static_cast<double>(nanos_.load()) * 1e-9; }

  /// NodeEmbeddings calls so far. Within explain/, only the
  /// GraphScoringContext constructor calls NodeEmbeddings, right after its
  /// one NodeInfluence::Compute, so this counts the scoring contexts (and
  /// influence computations) the explainers build on this model.
  uint64_t embedding_calls() const { return embedding_calls_.load(); }

 private:
  friend class InferScope;
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<uint64_t> nanos_{0};
  mutable std::atomic<uint64_t> embedding_calls_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_MODEL_H_
