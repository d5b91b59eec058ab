#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>

#include "ml/autograd.h"
#include "ml/checkpoint.h"
#include "ml/layers.h"
#include "ml/optimizer.h"
#include "ml/transformer.h"
#include "temp_path.h"

namespace m3::ml {
namespace {

// Finite-difference gradient check: builds the graph twice per perturbed
// element via `forward`, which maps a parameter to a scalar loss.
void CheckParamGradient(Parameter& p,
                        const std::function<float(Graph&, Var)>& loss_of_param,
                        float tol = 2e-2f) {
  // Analytic gradient.
  p.ZeroGrad();
  {
    Graph g;
    Var in = g.Param(&p);
    // Build loss and backward inside loss_of_param.
    loss_of_param(g, in);
  }
  const Tensor analytic = p.grad;

  const float eps = 1e-2f;
  for (int r = 0; r < p.value.rows(); ++r) {
    for (int c = 0; c < p.value.cols(); ++c) {
      const float orig = p.value.at(r, c);
      p.value.at(r, c) = orig + eps;
      float up;
      {
        Graph g;
        up = loss_of_param(g, g.Param(&p));
      }
      p.value.at(r, c) = orig - eps;
      float down;
      {
        Graph g;
        down = loss_of_param(g, g.Param(&p));
      }
      p.value.at(r, c) = orig;
      const float numeric = (up - down) / (2.0f * eps);
      EXPECT_NEAR(analytic.at(r, c), numeric, tol * std::max(1.0f, std::abs(numeric)))
          << "at (" << r << "," << c << ")";
    }
  }
}

Tensor Arange(int rows, int cols, float scale = 0.1f) {
  Tensor t(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      t.at(r, c) = scale * static_cast<float>((r * cols + c) % 7 - 3);
    }
  }
  return t;
}

TEST(Autograd, ForwardMatMulValues) {
  Graph g;
  Tensor a(2, 3), b(3, 2);
  a.vec() = {1, 2, 3, 4, 5, 6};
  b.vec() = {1, 0, 0, 1, 1, 1};
  const Var out = g.MatMul(g.Input(a), g.Input(b));
  EXPECT_FLOAT_EQ(g.value(out).at(0, 0), 4.0f);
  EXPECT_FLOAT_EQ(g.value(out).at(0, 1), 5.0f);
  EXPECT_FLOAT_EQ(g.value(out).at(1, 0), 10.0f);
  EXPECT_FLOAT_EQ(g.value(out).at(1, 1), 11.0f);
}

TEST(Autograd, SoftmaxRowsSumToOne) {
  Graph g;
  const Var out = g.Softmax(g.Input(Arange(3, 5, 1.0f)));
  for (int r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 5; ++c) sum += g.value(out).at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
}

TEST(Autograd, GradientMatMul) {
  Rng rng(1);
  Parameter p("p", Tensor::Randn(3, 4, rng, 0.5f));
  const Tensor x = Arange(2, 3);
  const Tensor t = Arange(2, 4, 0.05f);
  Tensor mask(2, 4);
  mask.Fill(1.0f);
  CheckParamGradient(p, [&](Graph& g, Var pv) {
    const Var loss = g.MseLoss(g.MatMul(g.Input(x), pv), g.Input(t), g.Input(mask));
    const float v = g.value(loss).at(0, 0);
    g.Backward(loss);
    return v;
  });
}

TEST(Autograd, GradientThroughSoftmaxAndScale) {
  Rng rng(2);
  Parameter p("p", Tensor::Randn(3, 3, rng, 0.5f));
  const Tensor t = Arange(3, 3, 0.1f);
  Tensor mask(3, 3);
  mask.Fill(1.0f);
  CheckParamGradient(p, [&](Graph& g, Var pv) {
    const Var loss =
        g.MseLoss(g.Softmax(g.Scale(pv, 2.0f)), g.Input(t), g.Input(mask));
    const float v = g.value(loss).at(0, 0);
    g.Backward(loss);
    return v;
  });
}

TEST(Autograd, GradientRmsNorm) {
  Rng rng(3);
  Parameter p("p", Tensor::Randn(2, 6, rng, 0.8f));
  Parameter gain("g", Tensor::Randn(1, 6, rng, 0.2f));
  for (float& v : gain.value.vec()) v += 1.0f;
  const Tensor t = Arange(2, 6, 0.1f);
  Tensor mask(2, 6);
  mask.Fill(1.0f);
  CheckParamGradient(p, [&](Graph& g, Var pv) {
    const Var loss = g.MseLoss(g.RmsNorm(pv, g.Param(&gain)), g.Input(t), g.Input(mask));
    const float v = g.value(loss).at(0, 0);
    g.Backward(loss);
    return v;
  });
}

TEST(Autograd, GradientGeluTanhReluChain) {
  Rng rng(4);
  Parameter p("p", Tensor::Randn(2, 5, rng, 0.7f));
  const Tensor t = Arange(2, 5, 0.1f);
  Tensor mask(2, 5);
  mask.Fill(1.0f);
  CheckParamGradient(p, [&](Graph& g, Var pv) {
    const Var h = g.Tanh(g.Gelu(pv));
    const Var loss = g.MseLoss(g.Relu(h), g.Input(t), g.Input(mask));
    const float v = g.value(loss).at(0, 0);
    g.Backward(loss);
    return v;
  });
}

TEST(Autograd, GradientConcatSliceMeanRows) {
  Rng rng(5);
  Parameter p("p", Tensor::Randn(3, 4, rng, 0.5f));
  const Tensor t = Arange(1, 6, 0.1f);
  Tensor mask(1, 6);
  mask.Fill(1.0f);
  CheckParamGradient(p, [&](Graph& g, Var pv) {
    const Var left = g.SliceCols(pv, 0, 2);
    const Var all = g.ConcatCols({pv, left});
    const Var loss = g.MseLoss(g.MeanRows(all), g.Input(t), g.Input(mask));
    const float v = g.value(loss).at(0, 0);
    g.Backward(loss);
    return v;
  });
}

TEST(Autograd, GradientL1LossWithMask) {
  Rng rng(6);
  Parameter p("p", Tensor::Randn(2, 4, rng, 0.5f));
  Tensor t(2, 4);
  t.Fill(10.0f);  // keep pred-target well away from the kink at 0
  Tensor mask(2, 4);
  mask.Fill(1.0f);
  mask.at(0, 1) = 0.0f;  // masked entries must get zero gradient
  CheckParamGradient(p, [&](Graph& g, Var pv) {
    const Var loss = g.L1Loss(pv, g.Input(t), g.Input(mask));
    const float v = g.value(loss).at(0, 0);
    g.Backward(loss);
    return v;
  });
  // Explicitly verify the masked slot got no gradient.
  p.ZeroGrad();
  {
    Graph g;
    const Var loss = g.L1Loss(g.Param(&p), g.Input(t), g.Input(mask));
    g.Backward(loss);
  }
  EXPECT_FLOAT_EQ(p.grad.at(0, 1), 0.0f);
}

TEST(Autograd, GradientTransposeAndAddBroadcast) {
  Rng rng(7);
  Parameter bias("b", Tensor::Randn(1, 3, rng, 0.5f));
  const Tensor x = Arange(4, 3);
  const Tensor t = Arange(4, 3, 0.2f);
  Tensor mask(4, 3);
  mask.Fill(1.0f);
  CheckParamGradient(bias, [&](Graph& g, Var pv) {
    const Var out = g.Add(g.Input(x), pv);
    const Var loss = g.MseLoss(out, g.Input(t), g.Input(mask));
    const float v = g.value(loss).at(0, 0);
    g.Backward(loss);
    return v;
  });
}

TEST(Autograd, ShapeErrorsThrow) {
  Graph g;
  const Var a = g.Input(Tensor::Zeros(2, 3));
  const Var b = g.Input(Tensor::Zeros(2, 3));
  EXPECT_THROW(g.MatMul(a, b), std::invalid_argument);
  EXPECT_THROW(g.SliceCols(a, 2, 5), std::invalid_argument);
  EXPECT_THROW(g.ConcatCols({}), std::invalid_argument);
  const Var c = g.Input(Tensor::Zeros(1, 2));
  EXPECT_THROW(g.Sub(a, c), std::invalid_argument);
}

TEST(Autograd, BackwardTwiceThrows) {
  Graph g;
  Tensor ones(1, 1);
  ones.Fill(1.0f);
  const Var loss = g.MseLoss(g.Input(ones), g.Input(Tensor::Zeros(1, 1)), g.Input(ones));
  g.Backward(loss);
  EXPECT_THROW(g.Backward(loss), std::logic_error);
}

// ----------------------------------------------------------- fused ops ---
//
// Each fused tape op must match the unfused chain it replaced — same
// forward values and same parameter gradients (within float tolerance;
// fusion changes the accumulation order, so bitwise equality is not
// expected).

void ExpectTensorsNear(const Tensor& got, const Tensor& want, float tol, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got.vec()[i], want.vec()[i], tol) << what << " at element " << i;
  }
}

TEST(AutogradFused, LinearMatchesMatMulAddActChain) {
  Rng rng(21);
  const Tensor x = Tensor::Randn(5, 7, rng, 1.0f);
  const Tensor t = Tensor::Randn(5, 4, rng, 1.0f);
  Tensor mask(5, 4);
  mask.Fill(1.0f);
  for (Act act : {Act::kNone, Act::kRelu, Act::kGelu}) {
    Parameter w("w", Tensor::Randn(7, 4, rng, 0.5f));
    Parameter b("b", Tensor::Randn(1, 4, rng, 0.5f));

    Tensor ref_val, ref_gw, ref_gb;
    {
      w.ZeroGrad();
      b.ZeroGrad();
      Graph g;
      Var out = g.Add(g.MatMul(g.Input(x), g.Param(&w)), g.Param(&b));
      if (act == Act::kRelu) out = g.Relu(out);
      if (act == Act::kGelu) out = g.Gelu(out);
      const Var loss = g.MseLoss(out, g.Input(t), g.Input(mask));
      ref_val = g.value(out);
      g.Backward(loss);
      ref_gw = w.grad;
      ref_gb = b.grad;
    }

    w.ZeroGrad();
    b.ZeroGrad();
    Graph g;
    const Var out = g.Linear(g.Input(x), g.Param(&w), g.Param(&b), act);
    const Var loss = g.MseLoss(out, g.Input(t), g.Input(mask));
    ExpectTensorsNear(g.value(out), ref_val, 1e-5f, "Linear forward");
    g.Backward(loss);
    ExpectTensorsNear(w.grad, ref_gw, 1e-5f, "Linear grad_w");
    ExpectTensorsNear(b.grad, ref_gb, 1e-5f, "Linear grad_b");
  }
}

TEST(AutogradFused, MatMulNTMatchesMatMulTranspose) {
  Rng rng(22);
  Parameter a("a", Tensor::Randn(4, 6, rng, 0.7f));
  Parameter b("b", Tensor::Randn(3, 6, rng, 0.7f));
  const Tensor t = Tensor::Randn(4, 3, rng, 1.0f);
  Tensor mask(4, 3);
  mask.Fill(1.0f);

  Tensor ref_val, ref_ga, ref_gb;
  {
    a.ZeroGrad();
    b.ZeroGrad();
    Graph g;
    const Var out = g.MatMul(g.Param(&a), g.Transpose(g.Param(&b)));
    const Var loss = g.MseLoss(out, g.Input(t), g.Input(mask));
    ref_val = g.value(out);
    g.Backward(loss);
    ref_ga = a.grad;
    ref_gb = b.grad;
  }

  a.ZeroGrad();
  b.ZeroGrad();
  Graph g;
  const Var out = g.MatMulNT(g.Param(&a), g.Param(&b));
  const Var loss = g.MseLoss(out, g.Input(t), g.Input(mask));
  ExpectTensorsNear(g.value(out), ref_val, 1e-5f, "MatMulNT forward");
  g.Backward(loss);
  ExpectTensorsNear(a.grad, ref_ga, 1e-5f, "MatMulNT grad_a");
  ExpectTensorsNear(b.grad, ref_gb, 1e-5f, "MatMulNT grad_b");
}

TEST(AutogradFused, SoftmaxScaledMatchesScaleThenSoftmax) {
  Rng rng(23);
  Parameter p("p", Tensor::Randn(3, 5, rng, 1.2f));
  const Tensor t = Arange(3, 5, 0.1f);
  Tensor mask(3, 5);
  mask.Fill(1.0f);
  const float scale = 0.37f;

  Tensor ref_val, ref_gp;
  {
    p.ZeroGrad();
    Graph g;
    const Var out = g.Softmax(g.Scale(g.Param(&p), scale));
    const Var loss = g.MseLoss(out, g.Input(t), g.Input(mask));
    ref_val = g.value(out);
    g.Backward(loss);
    ref_gp = p.grad;
  }

  p.ZeroGrad();
  Graph g;
  const Var out = g.SoftmaxScaled(g.Param(&p), scale);
  const Var loss = g.MseLoss(out, g.Input(t), g.Input(mask));
  ExpectTensorsNear(g.value(out), ref_val, 1e-6f, "SoftmaxScaled forward");
  g.Backward(loss);
  ExpectTensorsNear(p.grad, ref_gp, 1e-6f, "SoftmaxScaled grad");
}

TEST(AutogradFused, SliceRowsMatchesTransposeSliceColsChain) {
  Rng rng(24);
  Parameter p("p", Tensor::Randn(6, 4, rng, 0.9f));
  const Tensor t = Arange(3, 4, 0.1f);
  Tensor mask(3, 4);
  mask.Fill(1.0f);

  Tensor ref_val, ref_gp;
  {
    p.ZeroGrad();
    Graph g;
    // The old positional-embedding pattern: transpose, slice columns,
    // transpose back.
    const Var out = g.Transpose(g.SliceCols(g.Transpose(g.Param(&p)), 2, 3));
    const Var loss = g.MseLoss(out, g.Input(t), g.Input(mask));
    ref_val = g.value(out);
    g.Backward(loss);
    ref_gp = p.grad;
  }

  p.ZeroGrad();
  Graph g;
  const Var out = g.SliceRows(g.Param(&p), 2, 3);
  const Var loss = g.MseLoss(out, g.Input(t), g.Input(mask));
  ExpectTensorsNear(g.value(out), ref_val, 0.0f, "SliceRows forward");
  g.Backward(loss);
  ExpectTensorsNear(p.grad, ref_gp, 1e-7f, "SliceRows grad");
}

TEST(AutogradFused, SliceRowsOutOfRangeThrows) {
  Graph g;
  const Var a = g.Input(Tensor::Zeros(4, 3));
  EXPECT_THROW(g.SliceRows(a, 3, 2), std::invalid_argument);
  EXPECT_THROW(g.SliceRows(a, -1, 2), std::invalid_argument);
  EXPECT_THROW(g.SliceRows(a, 0, 0), std::invalid_argument);
}

TEST(AutogradFused, LinearGradientAgainstFiniteDifferences) {
  Rng rng(25);
  Parameter w("w", Tensor::Randn(3, 4, rng, 0.5f));
  const Tensor x = Arange(2, 3);
  const Tensor t = Arange(2, 4, 0.05f);
  Tensor mask(2, 4);
  mask.Fill(1.0f);
  Parameter b("b", Tensor::Randn(1, 4, rng, 0.3f));
  CheckParamGradient(w, [&](Graph& g, Var pv) {
    const Var loss = g.MseLoss(g.Linear(g.Input(x), pv, g.Param(&b), Act::kGelu),
                               g.Input(t), g.Input(mask));
    const float v = g.value(loss).at(0, 0);
    g.Backward(loss);
    return v;
  });
}

// --------------------------------------------------------------- layers ---

TEST(Layers, LinearShapesAndParams) {
  Rng rng(11);
  RandomParams init(rng);
  Linear lin("lin", 8, 4, init);
  Graph g;
  const Var out = lin(g, g.Input(Tensor::Zeros(3, 8)));
  EXPECT_EQ(g.value(out).rows(), 3);
  EXPECT_EQ(g.value(out).cols(), 4);
  std::vector<Parameter*> params;
  lin.CollectParams(params);
  EXPECT_EQ(params.size(), 2u);
}

TEST(Layers, MlpLearnsLinearMap) {
  // y = 2x (scalar); a tiny MLP should fit it quickly.
  Rng rng(13);
  RandomParams init(rng);
  Mlp mlp("mlp", 1, 16, 1, init);
  std::vector<Parameter*> params;
  mlp.CollectParams(params);
  Adam adam(params, {.lr = 3e-2f, .beta1 = 0.9f, .beta2 = 0.999f, .eps = 1e-8f, .grad_clip = 0.0f});

  Tensor mask(1, 1);
  mask.Fill(1.0f);
  float final_loss = 1e9f;
  for (int step = 0; step < 400; ++step) {
    const float xv = static_cast<float>(rng.Uniform(-1.0, 1.0));
    Tensor x(1, 1), y(1, 1);
    x.at(0, 0) = xv;
    y.at(0, 0) = 2.0f * xv;
    Graph g;
    const Var loss = g.MseLoss(mlp(g, g.Input(x)), g.Input(y), g.Input(mask));
    final_loss = g.value(loss).at(0, 0);
    g.Backward(loss);
    adam.Step();
  }
  EXPECT_LT(final_loss, 0.02f);
}

// ---------------------------------------------------------- transformer ---

TEST(Transformer, EncodeShapeAndDeterminism) {
  TransformerConfig cfg;
  cfg.input_dim = 20;
  cfg.d_model = 16;
  cfg.num_heads = 4;
  cfg.num_layers = 2;
  cfg.ff_dim = 32;
  Rng rng(17);
  RandomParams init(rng);
  TransformerEncoder enc("enc", cfg, init);
  const Tensor seq = Arange(3, 20);
  Graph g1, g2;
  const Var o1 = enc.Encode(g1, seq);
  const Var o2 = enc.Encode(g2, seq);
  EXPECT_EQ(g1.value(o1).rows(), 1);
  EXPECT_EQ(g1.value(o1).cols(), 16);
  for (int j = 0; j < 16; ++j) {
    EXPECT_FLOAT_EQ(g1.value(o1).at(0, j), g2.value(o2).at(0, j));
  }
}

TEST(Transformer, SensitiveToSequenceContentAndOrder) {
  TransformerConfig cfg;
  cfg.input_dim = 10;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ff_dim = 16;
  Rng rng(19);
  RandomParams init(rng);
  TransformerEncoder enc("enc", cfg, init);

  Tensor a = Arange(2, 10);
  Tensor b = a;
  b.at(1, 3) += 1.0f;  // different content
  Tensor c(2, 10);     // swapped rows of a
  for (int j = 0; j < 10; ++j) {
    c.at(0, j) = a.at(1, j);
    c.at(1, j) = a.at(0, j);
  }
  Graph g1, g2, g3;
  const Tensor& oa = g1.value(enc.Encode(g1, a));
  const Tensor& ob = g2.value(enc.Encode(g2, b));
  const Tensor& oc = g3.value(enc.Encode(g3, c));
  double diff_ab = 0.0, diff_ac = 0.0;
  for (int j = 0; j < 8; ++j) {
    diff_ab += std::abs(oa.at(0, j) - ob.at(0, j));
    diff_ac += std::abs(oa.at(0, j) - oc.at(0, j));
  }
  EXPECT_GT(diff_ab, 1e-4);  // content matters
  EXPECT_GT(diff_ac, 1e-4);  // position matters (positional embedding)
}

TEST(Transformer, VariableSequenceLengths) {
  TransformerConfig cfg;
  cfg.input_dim = 12;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 1;
  cfg.ff_dim = 16;
  cfg.max_seq = 6;
  Rng rng(23);
  RandomParams init(rng);
  TransformerEncoder enc("enc", cfg, init);
  for (int n : {1, 2, 4, 6}) {
    Graph g;
    const Var out = enc.Encode(g, Arange(n, 12));
    EXPECT_EQ(g.value(out).cols(), 8);
  }
  Graph g;
  EXPECT_THROW(enc.Encode(g, Arange(7, 12)), std::invalid_argument);
  EXPECT_THROW(enc.Encode(g, Arange(2, 11)), std::invalid_argument);
}

TEST(Transformer, GradientsFlowToAllParameters) {
  TransformerConfig cfg;
  cfg.input_dim = 10;
  cfg.d_model = 8;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.ff_dim = 16;
  Rng rng(29);
  RandomParams init(rng);
  TransformerEncoder enc("enc", cfg, init);
  std::vector<Parameter*> params;
  enc.CollectParams(params);
  for (Parameter* p : params) p->ZeroGrad();

  Graph g;
  const Var ctx = enc.Encode(g, Arange(3, 10));
  Tensor target(1, 8), mask(1, 8);
  mask.Fill(1.0f);
  const Var loss = g.MseLoss(ctx, g.Input(target), g.Input(mask));
  g.Backward(loss);

  int nonzero_params = 0;
  for (Parameter* p : params) {
    float norm = 0.0f;
    for (float v : p->grad.vec()) norm += std::abs(v);
    if (norm > 0.0f) ++nonzero_params;
  }
  // All parameters should receive gradient (pos_emb rows beyond seq-len 3
  // don't, but the parameter overall does).
  EXPECT_EQ(nonzero_params, static_cast<int>(params.size()));
}

// ----------------------------------------------------------- optimizer ---

TEST(Adam, ConvergesOnQuadratic) {
  Rng rng(31);
  Parameter p("p", Tensor::Randn(1, 5, rng, 1.0f));
  Adam adam({&p}, {.lr = 5e-2f, .beta1 = 0.9f, .beta2 = 0.999f, .eps = 1e-8f, .grad_clip = 0.0f});
  Tensor target(1, 5);
  for (int j = 0; j < 5; ++j) target.at(0, j) = static_cast<float>(j);
  Tensor mask(1, 5);
  mask.Fill(1.0f);
  for (int step = 0; step < 500; ++step) {
    Graph g;
    const Var loss = g.MseLoss(g.Param(&p), g.Input(target), g.Input(mask));
    g.Backward(loss);
    adam.Step();
  }
  for (int j = 0; j < 5; ++j) EXPECT_NEAR(p.value.at(0, j), target.at(0, j), 0.05f);
}

TEST(Adam, GradClipBoundsStep)  {
  Parameter p("p", Tensor::Zeros(1, 1));
  Adam adam({&p}, {.lr = 1.0f, .beta1 = 0.0f, .beta2 = 0.0f, .eps = 1e-8f, .grad_clip = 0.5f});
  p.ZeroGrad();  // training state is allocated on first use
  p.grad.at(0, 0) = 100.0f;  // should be clipped to 0.5
  adam.Step();
  // With beta1=beta2=0, update = lr * g/|g| = 1 (sign-like); the clip
  // limits the *gradient*, not the Adam-normalized step, so just check the
  // value moved in the right direction and is finite.
  EXPECT_LT(p.value.at(0, 0), 0.0f);
  EXPECT_TRUE(std::isfinite(p.value.at(0, 0)));
}

// ----------------------------------------------------------- checkpoint ---

TEST(Checkpoint, SaveLoadRoundTrip) {
  Rng rng(37);
  Parameter a("layer.a", Tensor::Randn(3, 4, rng, 1.0f));
  Parameter b("layer.b", Tensor::Randn(1, 7, rng, 1.0f));
  const std::string path = TempPath("m3_ckpt_test.bin");
  SaveCheckpoint(path, {&a, &b});
  EXPECT_TRUE(IsCheckpointFile(path));

  Parameter a2("layer.a", Tensor::Zeros(3, 4));
  Parameter b2("layer.b", Tensor::Zeros(1, 7));
  LoadCheckpoint(path, {&a2, &b2});
  for (std::size_t i = 0; i < a.value.size(); ++i) {
    EXPECT_FLOAT_EQ(a2.value.vec()[i], a.value.vec()[i]);
  }
  for (std::size_t i = 0; i < b.value.size(); ++i) {
    EXPECT_FLOAT_EQ(b2.value.vec()[i], b.value.vec()[i]);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingParamAndShapeMismatchThrow) {
  Rng rng(41);
  Parameter a("x", Tensor::Randn(2, 2, rng, 1.0f));
  const std::string path = TempPath("m3_ckpt_test2.bin");
  SaveCheckpoint(path, {&a});

  Parameter wrong_name("y", Tensor::Zeros(2, 2));
  EXPECT_THROW(LoadCheckpoint(path, {&wrong_name}), std::runtime_error);
  Parameter wrong_shape("x", Tensor::Zeros(3, 2));
  EXPECT_THROW(LoadCheckpoint(path, {&wrong_shape}), std::runtime_error);
  EXPECT_THROW(LoadCheckpoint("/nonexistent/file", {&a}), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, NonCheckpointFileRejected) {
  const std::string path = TempPath("m3_not_ckpt.bin");
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("hello", f);
  std::fclose(f);
  EXPECT_FALSE(IsCheckpointFile(path));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace m3::ml
