#include "tensor/tape.h"

#include <cmath>
#include <cstring>

#include "tensor/kernels.h"

namespace kgag {

namespace {

Scalar StableSoftplus(Scalar x) {
  // log(1+e^x) = max(x,0) + log1p(exp(-|x|))
  return std::max(x, 0.0) + std::log1p(std::exp(-std::abs(x)));
}

Scalar StableSigmoid(Scalar x) {
  if (x >= 0) {
    const Scalar z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const Scalar z = std::exp(x);
  return z / (1.0 + z);
}

}  // namespace

Var Tape::Emplace(Tensor value, bool requires_grad, BackwardFn backward) {
  // Aggregate init move-constructs the tensors, so an arena-backed value
  // carries its buffer (and resource) into the node; the grad starts
  // empty but bound to the tape's resource so its later allocation also
  // lands on the arena.
  nodes_.push_back(
      Node{std::move(value), Tensor(node_resource()), backward, requires_grad});
  return Var{static_cast<int32_t>(nodes_.size() - 1)};
}

Tape::Node& Tape::node(Var v) {
  KGAG_DCHECK(v.valid() && static_cast<size_t>(v.id) < nodes_.size());
  return nodes_[static_cast<size_t>(v.id)];
}

const Tape::Node& Tape::node(Var v) const {
  KGAG_DCHECK(v.valid() && static_cast<size_t>(v.id) < nodes_.size());
  return nodes_[static_cast<size_t>(v.id)];
}

void Tape::AccumulateGrad(Var v, const Tensor& g) {
  Node& n = node(v);
  if (!n.requires_grad) return;
  if (n.grad.empty()) {
    n.grad.ResetShape(n.value.rows(), n.value.cols());
  }
  n.grad.Add(g);
}

Tensor Tape::CloneTensor(const Tensor& src) {
  Tensor out(src.rows(), src.cols(), node_resource());
  std::memcpy(out.data(), src.data(), src.size() * sizeof(Scalar));
  return out;
}

std::span<const size_t> Tape::ArenaCopy(std::span<const size_t> v) {
  auto* p = static_cast<size_t*>(
      arena_.allocate(v.size() * sizeof(size_t), alignof(size_t)));
  std::memcpy(p, v.data(), v.size() * sizeof(size_t));
  return {p, v.size()};
}

std::span<const Var> Tape::ArenaCopy(std::span<const Var> v) {
  auto* p = static_cast<Var*>(
      arena_.allocate(v.size() * sizeof(Var), alignof(Var)));
  std::memcpy(p, v.data(), v.size() * sizeof(Var));
  return {p, v.size()};
}

const Tensor& Tape::value(Var v) const { return node(v).value; }

const Tensor& Tape::grad(Var v) const {
  const Node& n = node(v);
  KGAG_CHECK(!n.grad.empty()) << "grad not computed for node " << v.id;
  return n.grad;
}

void Tape::Clear() {
  // Destroy nodes (and their arena-bound tensors) before rewinding the
  // arena they point into; node-vector capacity survives.
  nodes_.clear();
  arena_.Reset();
}

// ---- Leaves ---------------------------------------------------------------

Var Tape::Leaf(Parameter* p) {
  KGAG_CHECK(p != nullptr);
  return Emplace(CloneTensor(p->value), /*requires_grad=*/true,
                 [p](Tape* t, const Tensor& g) { t->sink_->AddDense(p, g); });
}

Var Tape::Gather(Parameter* table, std::span<const size_t> rows) {
  KGAG_CHECK(table != nullptr);
  const size_t d = table->value.cols();
  std::span<const size_t> stable = ArenaCopy(rows);
  Tensor out = NewTensor(stable.size(), d);
  for (size_t i = 0; i < stable.size(); ++i) {
    KGAG_CHECK_LT(stable[i], table->value.rows())
        << "gather row out of range in " << table->name;
    std::memcpy(out.data() + i * d, table->value.data() + stable[i] * d,
                d * sizeof(Scalar));
  }
  const size_t* rp = stable.data();
  const size_t rn = stable.size();
  return Emplace(std::move(out), /*requires_grad=*/true,
                 [table, rp, rn](Tape* t, const Tensor& g) {
                   t->sink_->AddRows(table, {rp, rn}, g);
                 });
}

Var Tape::Gather(Parameter* table, std::span<const int32_t> rows) {
  KGAG_CHECK(table != nullptr);
  // Widen straight onto the arena; no size_t vector at the call site.
  auto* p = static_cast<size_t*>(
      arena_.allocate(rows.size() * sizeof(size_t), alignof(size_t)));
  for (size_t i = 0; i < rows.size(); ++i) {
    KGAG_CHECK_GE(rows[i], 0) << "negative gather row in " << table->name;
    p[i] = static_cast<size_t>(rows[i]);
  }
  const size_t d = table->value.cols();
  Tensor out = NewTensor(rows.size(), d);
  for (size_t i = 0; i < rows.size(); ++i) {
    KGAG_CHECK_LT(p[i], table->value.rows())
        << "gather row out of range in " << table->name;
    std::memcpy(out.data() + i * d, table->value.data() + p[i] * d,
                d * sizeof(Scalar));
  }
  const size_t rn = rows.size();
  const size_t* rp = p;
  return Emplace(std::move(out), /*requires_grad=*/true,
                 [table, rp, rn](Tape* t, const Tensor& g) {
                   t->sink_->AddRows(table, {rp, rn}, g);
                 });
}

Var Tape::Constant(Tensor t) {
  return Emplace(std::move(t), /*requires_grad=*/false, nullptr);
}

// ---- Elementwise / shape ----------------------------------------------------

Var Tape::Add(Var a, Var b) {
  KGAG_CHECK(value(a).same_shape(value(b))) << "Add shape mismatch";
  Tensor out = CloneTensor(value(a));
  out.Add(value(b));
  bool rg = node(a).requires_grad || node(b).requires_grad;
  return Emplace(std::move(out), rg, [a, b](Tape* t, const Tensor& g) {
    t->AccumulateGrad(a, g);
    t->AccumulateGrad(b, g);
  });
}

Var Tape::Sub(Var a, Var b) {
  KGAG_CHECK(value(a).same_shape(value(b))) << "Sub shape mismatch";
  Tensor out = CloneTensor(value(a));
  out.Axpy(-1.0, value(b));
  bool rg = node(a).requires_grad || node(b).requires_grad;
  return Emplace(std::move(out), rg, [a, b](Tape* t, const Tensor& g) {
    t->AccumulateGrad(a, g);
    Tensor neg = t->CloneTensor(g);
    neg.Scale(-1.0);
    t->AccumulateGrad(b, neg);
  });
}

Var Tape::Mul(Var a, Var b) {
  KGAG_CHECK(value(a).same_shape(value(b))) << "Mul shape mismatch";
  Tensor out = CloneTensor(value(a));
  out.Mul(value(b));
  bool rg = node(a).requires_grad || node(b).requires_grad;
  return Emplace(std::move(out), rg, [a, b](Tape* t, const Tensor& g) {
    Tensor ga = t->CloneTensor(g);
    ga.Mul(t->value(b));
    t->AccumulateGrad(a, ga);
    Tensor gb = t->CloneTensor(g);
    gb.Mul(t->value(a));
    t->AccumulateGrad(b, gb);
  });
}

Var Tape::ScalarMul(Var a, Scalar s) {
  Tensor out = CloneTensor(value(a));
  out.Scale(s);
  return Emplace(std::move(out), node(a).requires_grad,
                 [a, s](Tape* t, const Tensor& g) {
                   Tensor ga = t->CloneTensor(g);
                   ga.Scale(s);
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::AddScalar(Var a, Scalar s) {
  Tensor out = CloneTensor(value(a));
  out.Apply([s](Scalar x) { return x + s; });
  return Emplace(std::move(out), node(a).requires_grad,
                 [a](Tape* t, const Tensor& g) { t->AccumulateGrad(a, g); });
}

Var Tape::MatMul(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  KGAG_CHECK_EQ(av.cols(), bv.rows()) << "MatMul inner dim";
  Tensor out = NewTensor(av.rows(), bv.cols());
  kernels::Gemm(false, false, av.rows(), bv.cols(), av.cols(), av.data(),
                av.cols(), bv.data(), bv.cols(), out.data(), out.cols());
  bool rg = node(a).requires_grad || node(b).requires_grad;
  return Emplace(std::move(out), rg, [a, b](Tape* t, const Tensor& g) {
    // dA = g Bᵀ ; dB = Aᵀ g
    const Tensor& av2 = t->value(a);
    const Tensor& bv2 = t->value(b);
    Tensor ga = t->NewTensor(g.rows(), bv2.rows());
    kernels::Gemm(false, true, g.rows(), bv2.rows(), g.cols(), g.data(),
                  g.cols(), bv2.data(), bv2.cols(), ga.data(), ga.cols());
    t->AccumulateGrad(a, ga);
    Tensor gb = t->NewTensor(av2.cols(), g.cols());
    kernels::Gemm(true, false, av2.cols(), g.cols(), av2.rows(), av2.data(),
                  av2.cols(), g.data(), g.cols(), gb.data(), gb.cols());
    t->AccumulateGrad(b, gb);
  });
}

Var Tape::Transpose(Var a) {
  const Tensor& av = value(a);
  Tensor out = NewTensor(av.cols(), av.rows());
  for (size_t r = 0; r < av.rows(); ++r) {
    for (size_t c = 0; c < av.cols(); ++c) out.at(c, r) = av.at(r, c);
  }
  return Emplace(std::move(out), node(a).requires_grad,
                 [a](Tape* t, const Tensor& g) {
                   Tensor ga = t->NewTensor(g.cols(), g.rows());
                   for (size_t r = 0; r < g.rows(); ++r) {
                     for (size_t c = 0; c < g.cols(); ++c) {
                       ga.at(c, r) = g.at(r, c);
                     }
                   }
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::ConcatCols(std::span<const Var> parts) {
  KGAG_CHECK(!parts.empty()) << "ConcatCols of nothing";
  const size_t rows = value(parts[0]).rows();
  size_t total_cols = 0;
  bool rg = false;
  for (Var p : parts) {
    KGAG_CHECK_EQ(value(p).rows(), rows) << "ConcatCols row mismatch";
    total_cols += value(p).cols();
    rg = rg || node(p).requires_grad;
  }
  Tensor out = NewTensor(rows, total_cols);
  size_t off = 0;
  for (Var p : parts) {
    const Tensor& v = value(p);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < v.cols(); ++c) out.at(r, off + c) = v.at(r, c);
    }
    off += v.cols();
  }
  std::span<const Var> stable = ArenaCopy(parts);
  const Var* pp = stable.data();
  const size_t pn = stable.size();
  return Emplace(std::move(out), rg, [pp, pn](Tape* t, const Tensor& g) {
    size_t off2 = 0;
    for (size_t k = 0; k < pn; ++k) {
      const Var p = pp[k];
      const Tensor& v = t->value(p);
      Tensor slice = t->NewTensor(v.rows(), v.cols());
      for (size_t r = 0; r < v.rows(); ++r) {
        for (size_t c = 0; c < v.cols(); ++c) {
          slice.at(r, c) = g.at(r, off2 + c);
        }
      }
      t->AccumulateGrad(p, slice);
      off2 += v.cols();
    }
  });
}

Var Tape::ConcatRows(std::span<const Var> parts) {
  KGAG_CHECK(!parts.empty()) << "ConcatRows of nothing";
  const size_t cols = value(parts[0]).cols();
  size_t total_rows = 0;
  bool rg = false;
  for (Var p : parts) {
    KGAG_CHECK_EQ(value(p).cols(), cols) << "ConcatRows col mismatch";
    total_rows += value(p).rows();
    rg = rg || node(p).requires_grad;
  }
  Tensor out = NewTensor(total_rows, cols);
  size_t off = 0;
  for (Var p : parts) {
    const Tensor& v = value(p);
    for (size_t r = 0; r < v.rows(); ++r) {
      for (size_t c = 0; c < cols; ++c) out.at(off + r, c) = v.at(r, c);
    }
    off += v.rows();
  }
  std::span<const Var> stable = ArenaCopy(parts);
  const Var* pp = stable.data();
  const size_t pn = stable.size();
  return Emplace(std::move(out), rg, [pp, pn](Tape* t, const Tensor& g) {
    size_t off2 = 0;
    for (size_t k = 0; k < pn; ++k) {
      const Var p = pp[k];
      const Tensor& v = t->value(p);
      Tensor slice = t->NewTensor(v.rows(), v.cols());
      for (size_t r = 0; r < v.rows(); ++r) {
        for (size_t c = 0; c < v.cols(); ++c) {
          slice.at(r, c) = g.at(off2 + r, c);
        }
      }
      t->AccumulateGrad(p, slice);
      off2 += v.rows();
    }
  });
}

Var Tape::SliceRow(Var a, size_t r) {
  KGAG_CHECK_LT(r, value(a).rows());
  const Tensor& av = value(a);
  Tensor out = NewTensor(1, av.cols());
  std::memcpy(out.data(), av.data() + r * av.cols(),
              av.cols() * sizeof(Scalar));
  return Emplace(std::move(out), node(a).requires_grad,
                 [a, r](Tape* t, const Tensor& g) {
                   Tensor full =
                       t->NewTensor(t->value(a).rows(), t->value(a).cols());
                   full.AddToRow(r, g);
                   t->AccumulateGrad(a, full);
                 });
}

Var Tape::AddRowBroadcast(Var a, Var row) {
  const Tensor& av = value(a);
  const Tensor& rv = value(row);
  KGAG_CHECK(rv.rows() == 1 && rv.cols() == av.cols())
      << "AddRowBroadcast shape";
  Tensor out = CloneTensor(av);
  for (size_t r = 0; r < av.rows(); ++r) out.AddToRow(r, rv);
  bool rg = node(a).requires_grad || node(row).requires_grad;
  return Emplace(std::move(out), rg, [a, row](Tape* t, const Tensor& g) {
    t->AccumulateGrad(a, g);
    Tensor rsum = t->NewTensor(1, g.cols());
    for (size_t r = 0; r < g.rows(); ++r) {
      for (size_t c = 0; c < g.cols(); ++c) rsum.at(0, c) += g.at(r, c);
    }
    t->AccumulateGrad(row, rsum);
  });
}

Var Tape::Reshape(Var a, size_t rows, size_t cols) {
  const Tensor& av = value(a);
  KGAG_CHECK_EQ(av.size(), rows * cols) << "Reshape size mismatch";
  Tensor out = NewTensor(rows, cols);
  std::memcpy(out.data(), av.data(), av.size() * sizeof(Scalar));
  return Emplace(std::move(out), node(a).requires_grad,
                 [a](Tape* t, const Tensor& g) {
                   const Tensor& av2 = t->value(a);
                   Tensor ga = t->NewTensor(av2.rows(), av2.cols());
                   std::memcpy(ga.data(), g.data(), g.size() * sizeof(Scalar));
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::RepeatRows(Var a, size_t n) {
  const Tensor& av = value(a);
  const size_t m = av.rows();
  const size_t d = av.cols();
  Tensor out = NewTensor(m * n, d);
  for (size_t r = 0; r < m; ++r) {
    for (size_t j = 0; j < n; ++j) {
      std::memcpy(out.data() + (r * n + j) * d, av.data() + r * d,
                  d * sizeof(Scalar));
    }
  }
  return Emplace(std::move(out), node(a).requires_grad,
                 [a, n](Tape* t, const Tensor& g) {
                   const Tensor& av2 = t->value(a);
                   Tensor ga = t->NewTensor(av2.rows(), av2.cols());
                   for (size_t r = 0; r < g.rows(); ++r) {
                     for (size_t c = 0; c < g.cols(); ++c) {
                       ga.at(r / n, c) += g.at(r, c);
                     }
                   }
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::Rows(Var a, std::span<const size_t> rows) {
  const Tensor& av = value(a);
  const size_t d = av.cols();
  std::span<const size_t> stable = ArenaCopy(rows);
  Tensor out = NewTensor(stable.size(), d);
  for (size_t i = 0; i < stable.size(); ++i) {
    KGAG_CHECK_LT(stable[i], av.rows()) << "Rows index out of range";
    std::memcpy(out.data() + i * d, av.data() + stable[i] * d,
                d * sizeof(Scalar));
  }
  const size_t* rp = stable.data();
  const size_t rn = stable.size();
  return Emplace(std::move(out), node(a).requires_grad,
                 [a, rp, rn](Tape* t, const Tensor& g) {
                   const Tensor& av2 = t->value(a);
                   Tensor ga = t->NewTensor(av2.rows(), av2.cols());
                   for (size_t i = 0; i < rn; ++i) {
                     for (size_t c = 0; c < g.cols(); ++c) {
                       ga.at(rp[i], c) += g.at(i, c);
                     }
                   }
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::SegmentWeightedSumRows(Var weights, Var values) {
  const Tensor& w = value(weights);
  const Tensor& v = value(values);
  const size_t n = w.rows();
  const size_t k = w.cols();
  KGAG_CHECK_EQ(v.rows(), n * k) << "SegmentWeightedSumRows shape";
  Tensor out = NewTensor(n, v.cols());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      const Scalar wij = w.at(i, j);
      const size_t vr = i * k + j;
      for (size_t c = 0; c < v.cols(); ++c) {
        out.at(i, c) += wij * v.at(vr, c);
      }
    }
  }
  bool rg = node(weights).requires_grad || node(values).requires_grad;
  return Emplace(std::move(out), rg,
                 [weights, values](Tape* t, const Tensor& g) {
                   const Tensor& w2 = t->value(weights);
                   const Tensor& v2 = t->value(values);
                   const size_t n2 = w2.rows();
                   const size_t k2 = w2.cols();
                   Tensor gw = t->NewTensor(n2, k2);
                   Tensor gv = t->NewTensor(v2.rows(), v2.cols());
                   for (size_t i = 0; i < n2; ++i) {
                     for (size_t j = 0; j < k2; ++j) {
                       const size_t vr = i * k2 + j;
                       Scalar s = 0.0;
                       for (size_t c = 0; c < v2.cols(); ++c) {
                         s += g.at(i, c) * v2.at(vr, c);
                         gv.at(vr, c) += w2.at(i, j) * g.at(i, c);
                       }
                       gw.at(i, j) = s;
                     }
                   }
                   t->AccumulateGrad(weights, gw);
                   t->AccumulateGrad(values, gv);
                 });
}

// ---- Nonlinearities ---------------------------------------------------------

Var Tape::Relu(Var a) {
  Tensor out = CloneTensor(value(a));
  out.Apply([](Scalar x) { return x > 0 ? x : 0.0; });
  return Emplace(std::move(out), node(a).requires_grad,
                 [a](Tape* t, const Tensor& g) {
                   const Tensor& x = t->value(a);
                   Tensor ga = t->CloneTensor(g);
                   for (size_t i = 0; i < ga.size(); ++i) {
                     if (x[i] <= 0) ga[i] = 0.0;
                   }
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::Sigmoid(Var a) {
  Tensor out = CloneTensor(value(a));
  out.Apply(StableSigmoid);
  Var v = Emplace(std::move(out), node(a).requires_grad, nullptr);
  node(v).backward = [a, v](Tape* t, const Tensor& g) {
    const Tensor& y = t->value(v);
    Tensor ga = t->CloneTensor(g);
    for (size_t i = 0; i < ga.size(); ++i) ga[i] *= y[i] * (1.0 - y[i]);
    t->AccumulateGrad(a, ga);
  };
  return v;
}

Var Tape::Tanh(Var a) {
  Tensor out = CloneTensor(value(a));
  out.Apply([](Scalar x) { return std::tanh(x); });
  Var v = Emplace(std::move(out), node(a).requires_grad, nullptr);
  node(v).backward = [a, v](Tape* t, const Tensor& g) {
    const Tensor& y = t->value(v);
    Tensor ga = t->CloneTensor(g);
    for (size_t i = 0; i < ga.size(); ++i) ga[i] *= 1.0 - y[i] * y[i];
    t->AccumulateGrad(a, ga);
  };
  return v;
}

Var Tape::Softplus(Var a) {
  Tensor out = CloneTensor(value(a));
  out.Apply(StableSoftplus);
  return Emplace(std::move(out), node(a).requires_grad,
                 [a](Tape* t, const Tensor& g) {
                   const Tensor& x = t->value(a);
                   Tensor ga = t->CloneTensor(g);
                   for (size_t i = 0; i < ga.size(); ++i) {
                     ga[i] *= StableSigmoid(x[i]);
                   }
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::Log(Var a) {
  Tensor out = CloneTensor(value(a));
  out.Apply([](Scalar x) { return std::log(x); });
  return Emplace(std::move(out), node(a).requires_grad,
                 [a](Tape* t, const Tensor& g) {
                   const Tensor& x = t->value(a);
                   Tensor ga = t->CloneTensor(g);
                   for (size_t i = 0; i < ga.size(); ++i) ga[i] /= x[i];
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::SoftmaxRows(Var a) {
  const Tensor& x = value(a);
  Tensor out = NewTensor(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    Scalar mx = -1e300;
    for (size_t c = 0; c < x.cols(); ++c) mx = std::max(mx, x.at(r, c));
    Scalar sum = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) {
      out.at(r, c) = std::exp(x.at(r, c) - mx);
      sum += out.at(r, c);
    }
    for (size_t c = 0; c < x.cols(); ++c) out.at(r, c) /= sum;
  }
  Var v = Emplace(std::move(out), node(a).requires_grad, nullptr);
  node(v).backward = [a, v](Tape* t, const Tensor& g) {
    const Tensor& y = t->value(v);
    Tensor ga = t->NewTensor(y.rows(), y.cols());
    for (size_t r = 0; r < y.rows(); ++r) {
      Scalar dot = 0.0;
      for (size_t c = 0; c < y.cols(); ++c) dot += g.at(r, c) * y.at(r, c);
      for (size_t c = 0; c < y.cols(); ++c) {
        ga.at(r, c) = y.at(r, c) * (g.at(r, c) - dot);
      }
    }
    t->AccumulateGrad(a, ga);
  };
  return v;
}

// ---- Reductions --------------------------------------------------------------

Var Tape::SumRows(Var a) {
  const Tensor& x = value(a);
  Tensor out = NewTensor(1, x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) out.at(0, c) += x.at(r, c);
  }
  return Emplace(std::move(out), node(a).requires_grad,
                 [a](Tape* t, const Tensor& g) {
                   const Tensor& x2 = t->value(a);
                   Tensor ga = t->NewTensor(x2.rows(), x2.cols());
                   for (size_t r = 0; r < x2.rows(); ++r) ga.AddToRow(r, g);
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::MeanRows(Var a) {
  const size_t k = value(a).rows();
  KGAG_CHECK_GT(k, 0u);
  return ScalarMul(SumRows(a), 1.0 / static_cast<Scalar>(k));
}

Var Tape::RowDot(Var a, Var b) {
  const Tensor& av = value(a);
  const Tensor& bv = value(b);
  KGAG_CHECK(av.same_shape(bv)) << "RowDot shape mismatch";
  Tensor out = NewTensor(av.rows(), 1);
  for (size_t r = 0; r < av.rows(); ++r) {
    Scalar s = 0.0;
    for (size_t c = 0; c < av.cols(); ++c) s += av.at(r, c) * bv.at(r, c);
    out.at(r, 0) = s;
  }
  bool rg = node(a).requires_grad || node(b).requires_grad;
  return Emplace(std::move(out), rg, [a, b](Tape* t, const Tensor& g) {
    const Tensor& av2 = t->value(a);
    const Tensor& bv2 = t->value(b);
    Tensor ga = t->NewTensor(av2.rows(), av2.cols());
    Tensor gb = t->NewTensor(bv2.rows(), bv2.cols());
    for (size_t r = 0; r < av2.rows(); ++r) {
      const Scalar gr = g.at(r, 0);
      for (size_t c = 0; c < av2.cols(); ++c) {
        ga.at(r, c) = gr * bv2.at(r, c);
        gb.at(r, c) = gr * av2.at(r, c);
      }
    }
    t->AccumulateGrad(a, ga);
    t->AccumulateGrad(b, gb);
  });
}

Var Tape::Sum(Var a) {
  Tensor out = NewTensor(1, 1);
  out[0] = value(a).Sum();
  return Emplace(std::move(out), node(a).requires_grad,
                 [a](Tape* t, const Tensor& g) {
                   const Tensor& x = t->value(a);
                   Tensor ga = t->NewTensor(x.rows(), x.cols());
                   ga.Fill(g.item());
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::Mean(Var a) {
  const size_t n = value(a).size();
  KGAG_CHECK_GT(n, 0u);
  return ScalarMul(Sum(a), 1.0 / static_cast<Scalar>(n));
}

Var Tape::MinAll(Var a) {
  const Tensor& x = value(a);
  KGAG_CHECK_GT(x.size(), 0u);
  size_t arg = 0;
  for (size_t i = 1; i < x.size(); ++i) {
    if (x[i] < x[arg]) arg = i;
  }
  Tensor out = NewTensor(1, 1);
  out[0] = x[arg];
  return Emplace(std::move(out), node(a).requires_grad,
                 [a, arg](Tape* t, const Tensor& g) {
                   const Tensor& x2 = t->value(a);
                   Tensor ga = t->NewTensor(x2.rows(), x2.cols());
                   ga[arg] = g.item();
                   t->AccumulateGrad(a, ga);
                 });
}

Var Tape::MaxAll(Var a) {
  const Tensor& x = value(a);
  KGAG_CHECK_GT(x.size(), 0u);
  size_t arg = 0;
  for (size_t i = 1; i < x.size(); ++i) {
    if (x[i] > x[arg]) arg = i;
  }
  Tensor out = NewTensor(1, 1);
  out[0] = x[arg];
  return Emplace(std::move(out), node(a).requires_grad,
                 [a, arg](Tape* t, const Tensor& g) {
                   const Tensor& x2 = t->value(a);
                   Tensor ga = t->NewTensor(x2.rows(), x2.cols());
                   ga[arg] = g.item();
                   t->AccumulateGrad(a, ga);
                 });
}

// ---- Backward -----------------------------------------------------------------

void Tape::Backward(Var loss) {
  KGAG_CHECK(loss.valid());
  KGAG_CHECK_EQ(value(loss).size(), 1u) << "Backward target must be scalar";
  // Release keeps each grad bound to its resource (and its capacity), so
  // repeated Backward calls on one graph reuse the same storage.
  for (Node& n : nodes_) n.grad.Release();
  Node& seed = node(loss);
  seed.grad.ResetShape(1, 1);
  seed.grad[0] = 1.0;
  for (size_t i = nodes_.size(); i-- > 0;) {
    Node& n = nodes_[i];
    if (!n.requires_grad || n.grad.empty() || !n.backward) continue;
    n.backward(this, n.grad);
  }
}

}  // namespace kgag
