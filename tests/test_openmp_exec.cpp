// ExecMode::OpenMP coverage for the paper kernels: the FormAD adjoint of
// every paper kernel, executed with multiple OpenMP threads, must match
// the serial execution of the same adjoint within 1e-12 relative error on
// the bytecode VM (the tree-walker is the serial-only reference).
//
// Why a tolerance and not bit-equality: reduction-guarded adjoint arrays
// are accumulated into thread-private copies which the runtime merges in
// thread order at the join point. That merge reassociates the
// floating-point sums, so the last bits may differ from the serial
// left-to-right order — 1e-12 relative is far above round-off for these
// sizes and far below any real disagreement. Everything not under a
// reduction guard (exclusive or atomic writes) is bitwise identical.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.h"
#include "kernels/stencil.h"

namespace formad::testing {
namespace {

using driver::AdjointMode;
using exec::ExecEngine;
using exec::ExecMode;
using exec::ExecOptions;

struct Case {
  std::string name;
  Harness harness;
};

std::vector<Case> paperKernels() {
  std::vector<Case> cases;
  cases.push_back({"stencil", stencilHarness(2, 128, 11)});
  cases.push_back({"lbm", lbmHarness(11)});
  cases.push_back({"gfmc", gfmcHarness(false, 11)});
  cases.push_back({"greengauss", greenGaussHarness(48, 11)});
  cases.push_back({"indirect", indirectHarness(96, 11)});
  return cases;
}

class OpenMPExec : public ::testing::TestWithParam<int> {};

TEST_P(OpenMPExec, AdjointMatchesSerialOnPaperKernels) {
  const int threads = GetParam();
  ASSERT_GT(threads, 1) << "this suite exists to exercise numThreads > 1";

  ExecOptions serial;
  serial.mode = ExecMode::Serial;

  ExecOptions omp;
  omp.mode = ExecMode::OpenMP;
  omp.numThreads = threads;

  for (const Case& c : paperKernels()) {
    auto gSerial = adjointGradients(c.harness, AdjointMode::FormAD, serial, 5);
    auto gOmp = adjointGradients(c.harness, AdjointMode::FormAD, omp, 5);
    ASSERT_EQ(gSerial.size(), gOmp.size()) << c.name;
    for (const auto& [var, sv] : gSerial) {
      const auto& ov = gOmp.at(var);
      ASSERT_EQ(sv.size(), ov.size()) << c.name << "." << var;
      for (size_t i = 0; i < sv.size(); ++i)
        EXPECT_LT(relDiff(sv[i], ov[i]), 1e-12)
            << c.name << "." << var << "[" << i << "] with " << threads
            << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, OpenMPExec, ::testing::Values(2, 4));

// The tree-walker is the serial reference only: asking it for OpenMP
// execution is an error, never a silently serial run.
TEST(OpenMPExecTreeWalk, OpenMPModeIsRejected) {
  auto k = parser::parseKernel(kernels::stencilSpec(1).source);
  exec::Executor ex(*k);
  exec::Inputs io;
  ExecOptions omp;
  omp.engine = ExecEngine::TreeWalk;
  omp.mode = ExecMode::OpenMP;
  omp.numThreads = 2;
  EXPECT_THROW((void)ex.run(io, omp), Error);
}

}  // namespace
}  // namespace formad::testing
