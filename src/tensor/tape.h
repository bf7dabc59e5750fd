// Reverse-mode automatic differentiation on a per-instance tape.
//
// Usage:
//   Tape tape;
//   Var x = tape.Leaf(param);           // dense parameter leaf
//   Var e = tape.Gather(table, {3, 7}); // embedding rows (sparse grads)
//   Var y = tape.Sigmoid(tape.MatMul(e, x));
//   Var loss = tape.Mean(y);
//   tape.Backward(loss);                // accumulates into Parameter::grad
//
// The tape is rebuilt for every training instance (define-by-run);
// Clear() or destruction releases all nodes. Gradients accumulate into
// Parameter buffers (or a per-shard GradBuffer when a sink is installed),
// so a mini-batch is several forward/backward passes followed by one
// optimizer step.
//
// Allocation (DESIGN.md §9): each tape owns a BumpArena. Node values,
// node gradients, backward temporaries and gathered row-index arrays all
// live on the arena; Clear() rewinds it in O(1) instead of freeing the
// ~hundreds of per-example allocations individually. Backward closures
// are stored inline in the node (no heap), which requires their captures
// to be trivially copyable — handles, scalars and raw pointers into the
// arena, never owning containers.
#ifndef KGAG_TENSOR_TAPE_H_
#define KGAG_TENSOR_TAPE_H_

#include <cstdint>
#include <memory_resource>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#include "tensor/arena.h"
#include "tensor/grad_buffer.h"
#include "tensor/parameter.h"
#include "tensor/tensor.h"

namespace kgag {

class Tape;

/// \brief Handle to a node on the tape. Cheap to copy; only valid for the
/// tape that created it, until the next Clear().
struct Var {
  int32_t id = -1;
  bool valid() const { return id >= 0; }
};

namespace detail {

/// \brief Fixed-capacity inline callable for backward closures.
///
/// Every op node used to carry a std::function, whose captured state is
/// heap-allocated past the small-buffer limit — one malloc/free per node
/// per example. Closure captures on the tape are all trivially copyable
/// (Var, Scalar, Parameter*, arena pointers + lengths), so they are
/// stored inline and relocate with the node by memcpy.
class BackwardClosure {
 public:
  static constexpr size_t kCapacity = 48;

  BackwardClosure() = default;
  BackwardClosure(std::nullptr_t) {}  // NOLINT: mirrors std::function

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, BackwardClosure> &&
             !std::is_same_v<std::decay_t<F>, std::nullptr_t>)
  BackwardClosure(F f) {  // NOLINT: implicit, mirrors std::function
    static_assert(std::is_trivially_copyable_v<F>,
                  "backward closures must capture trivially copyable state "
                  "(Var/Scalar/pointers); own containers via the arena");
    static_assert(sizeof(F) <= kCapacity, "closure exceeds inline capacity");
    static_assert(alignof(F) <= alignof(std::max_align_t));
    ::new (static_cast<void*>(buf_)) F(f);
    invoke_ = [](const void* buf, Tape* t, const Tensor& g) {
      (*static_cast<const F*>(buf))(t, g);
    };
  }

  void operator()(Tape* t, const Tensor& g) const { invoke_(buf_, t, g); }
  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  void (*invoke_)(const void*, Tape*, const Tensor&) = nullptr;
};

}  // namespace detail

/// \brief Computation graph recording values and backward closures.
class Tape {
 public:
  Tape() = default;
  /// `use_arena` false keeps every tensor on the heap (benchmark baseline
  /// for the arena win); row-index arrays still use the arena either way
  /// since closures reference them by pointer.
  explicit Tape(bool use_arena) : use_arena_(use_arena) {}
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // ---- Leaves -----------------------------------------------------------

  /// Whole parameter tensor as a differentiable leaf.
  Var Leaf(Parameter* p);
  /// Rows `rows` of an embedding table as a (k x d) differentiable leaf;
  /// backward scatters into the touched rows only. The indices are copied
  /// onto the tape's arena (callers may pass views of their own storage).
  Var Gather(Parameter* table, std::span<const size_t> rows);
  /// Convenience overload for 32-bit id lists (entity ids); widened onto
  /// the arena without building a size_t vector at the call site.
  Var Gather(Parameter* table, std::span<const int32_t> rows);
  Var Gather(Parameter* table, std::initializer_list<size_t> rows) {
    return Gather(table, std::span<const size_t>(rows.begin(), rows.size()));
  }
  /// Non-differentiable constant.
  Var Constant(Tensor t);

  // ---- Elementwise / shape ops -----------------------------------------

  Var Add(Var a, Var b);
  Var Sub(Var a, Var b);
  Var Mul(Var a, Var b);          ///< Hadamard product.
  Var ScalarMul(Var a, Scalar s);
  Var AddScalar(Var a, Scalar s);
  Var Neg(Var a) { return ScalarMul(a, -1.0); }
  Var MatMul(Var a, Var b);
  Var Transpose(Var a);
  /// Concatenates along columns: [A | B | ...]; all parts share row count.
  Var ConcatCols(std::span<const Var> parts);
  Var ConcatCols(std::initializer_list<Var> parts) {
    return ConcatCols(std::span<const Var>(parts.begin(), parts.size()));
  }
  /// Stacks along rows; all parts share column count.
  Var ConcatRows(std::span<const Var> parts);
  Var ConcatRows(std::initializer_list<Var> parts) {
    return ConcatRows(std::span<const Var>(parts.begin(), parts.size()));
  }
  /// Row r of a as a 1xC node.
  Var SliceRow(Var a, size_t r);
  /// (k x d) + (1 x d) with the row vector broadcast over rows.
  Var AddRowBroadcast(Var a, Var row);
  /// Row-major reinterpretation to (rows x cols); size must match.
  Var Reshape(Var a, size_t rows, size_t cols);
  /// Repeats each row of an (m x d) matrix n times in place:
  /// out[r*n + j] = a[r], giving (m*n x d).
  Var RepeatRows(Var a, size_t n);
  /// Row gather from a node: out[i] = a[rows[i]]; indices may repeat
  /// (their gradients sum). The indices are copied onto the arena.
  Var Rows(Var a, std::span<const size_t> rows);
  /// Segment-wise weighted sum: weights (n x K) and values ((n*K) x d)
  /// produce (n x d) where out[i] = Σ_k w[i,k] * values[i*K + k]. This is
  /// the neighbor-aggregation kernel of Eq. (1)/(7): one segment per
  /// parent node, K sampled neighbors each.
  Var SegmentWeightedSumRows(Var weights, Var values);

  // ---- Nonlinearities ----------------------------------------------------

  Var Relu(Var a);
  Var Sigmoid(Var a);
  Var Tanh(Var a);
  /// Numerically stable log(1 + exp(x)).
  Var Softplus(Var a);
  Var Log(Var a);
  /// Softmax independently over each row.
  Var SoftmaxRows(Var a);

  // ---- Reductions --------------------------------------------------------

  /// Column-wise sum: (k x d) -> (1 x d).
  Var SumRows(Var a);
  /// Column-wise mean: (k x d) -> (1 x d).
  Var MeanRows(Var a);
  /// Per-row dot product of same-shape tensors: (k x d),(k x d) -> (k x 1).
  Var RowDot(Var a, Var b);
  /// Sum of all elements -> (1 x 1).
  Var Sum(Var a);
  /// Mean of all elements -> (1 x 1).
  Var Mean(Var a);
  /// Full dot product of two same-shape tensors -> (1 x 1).
  Var DotAll(Var a, Var b) { return Sum(Mul(a, b)); }
  /// Minimum element -> (1 x 1); gradient flows to the (first) argmin.
  Var MinAll(Var a);
  /// Maximum element -> (1 x 1); gradient flows to the (first) argmax.
  Var MaxAll(Var a);

  // ---- Execution ---------------------------------------------------------

  /// WARNING: the returned reference is invalidated by the next op added
  /// to the tape (node storage may reallocate) and by Clear() (the arena
  /// rewinds); copy it if you create more nodes before reading. Copies
  /// always land on the heap (pmr copy semantics), so a copy is safe to
  /// keep past Clear().
  const Tensor& value(Var v) const;
  /// Gradient of the last Backward target w.r.t. node v. Valid after
  /// Backward and before the next mutation of the tape.
  const Tensor& grad(Var v) const;

  /// Runs reverse-mode accumulation seeded with d(loss)/d(loss) = 1.
  /// `loss` must be a 1x1 node. Parameter gradients accumulate (+=)
  /// through the installed GradSink — by default straight into
  /// Parameter::grad, so call ParameterStore::ZeroGrads between steps.
  void Backward(Var loss);

  /// Releases all nodes and rewinds the arena; previously returned Vars
  /// (and references into the tape) become invalid. Node storage and
  /// arena capacity are retained, so a warmed-up tape rebuilds the next
  /// graph without allocating.
  void Clear();

  /// Routes parameter gradients produced by Backward. The sink must
  /// outlive the tape or be reset first; nullptr restores the default
  /// direct-to-Parameter::grad sink.
  void set_grad_sink(GradSink* sink) {
    sink_ = sink != nullptr ? sink : DirectGradSink::Instance();
  }
  GradSink* grad_sink() const { return sink_; }

  /// Pre-sizes node storage (e.g. to the node count of the previous
  /// example) so graph construction never reallocates mid-build.
  void ReserveNodes(size_t n) { nodes_.reserve(n); }

  size_t num_nodes() const { return nodes_.size(); }
  /// The tape's arena, for allocation-behaviour tests and stats.
  const BumpArena& arena() const { return arena_; }

 private:
  // Backward closure: receives the tape so parent grads can be addressed
  // even if nodes_ reallocated between creation and backward.
  using BackwardFn = detail::BackwardClosure;

  struct Node {
    Tensor value;
    Tensor grad;
    BackwardFn backward;   // empty for constants / leaves without params
    bool requires_grad = false;
  };

  Var Emplace(Tensor value, bool requires_grad, BackwardFn backward);
  Node& node(Var v);
  const Node& node(Var v) const;
  /// Accumulates g into node v's grad buffer (allocating if needed).
  void AccumulateGrad(Var v, const Tensor& g);

  /// Memory resource node tensors are built on.
  std::pmr::memory_resource* node_resource() {
    return use_arena_ ? static_cast<std::pmr::memory_resource*>(&arena_)
                      : std::pmr::get_default_resource();
  }
  /// Zeroed (rows x cols) tensor on the tape's resource. Valid until
  /// Clear(); used for node values and backward temporaries.
  Tensor NewTensor(size_t rows, size_t cols) {
    return Tensor(rows, cols, node_resource());
  }
  /// Copy of src on the tape's resource.
  Tensor CloneTensor(const Tensor& src);
  /// Copies indices onto the arena (always the arena, independent of
  /// use_arena_: closures keep raw pointers into this storage).
  std::span<const size_t> ArenaCopy(std::span<const size_t> v);
  std::span<const Var> ArenaCopy(std::span<const Var> v);

  bool use_arena_ = true;
  // The arena must outlive nodes_ (members destroy in reverse order).
  BumpArena arena_;
  std::vector<Node> nodes_;
  GradSink* sink_ = DirectGradSink::Instance();
};

}  // namespace kgag

#endif  // KGAG_TENSOR_TAPE_H_
