// Validation tests for every benchmark workload: each kernel must produce
// correct output (its own validation) when run unchecked, under detection
// and under avoidance, across thread counts — and must never trip the
// verifier (these programs are deadlock-free).
#include <gtest/gtest.h>

#include "workloads/dist_kernels.h"
#include "workloads/spmd.h"
#include "workloads/workload.h"

namespace armus::wl {
namespace {

using namespace std::chrono_literals;

VerifierConfig detection_config() {
  VerifierConfig config;
  config.mode = VerifyMode::kDetection;
  config.period = 10ms;
  config.on_deadlock = [](const DeadlockReport& r) {
    ADD_FAILURE() << "false deadlock report: " << r.to_string();
  };
  return config;
}

// --- partition helper ----------------------------------------------------------

TEST(PartitionTest, CoversAllItemsDisjointly) {
  for (std::size_t count : {0u, 1u, 7u, 64u, 65u}) {
    for (int parts : {1, 3, 8}) {
      std::size_t covered = 0;
      std::size_t expected_next = 0;
      for (int p = 0; p < parts; ++p) {
        Range r = partition(count, parts, p);
        EXPECT_EQ(r.begin, expected_next);
        expected_next = r.end;
        covered += r.size();
      }
      EXPECT_EQ(covered, count);
      EXPECT_EQ(expected_next, count);
    }
  }
}

TEST(PartitionTest, BalancedWithinOne) {
  for (int parts : {3, 7}) {
    std::size_t min_size = SIZE_MAX, max_size = 0;
    for (int p = 0; p < parts; ++p) {
      Range r = partition(100, parts, p);
      min_size = std::min(min_size, r.size());
      max_size = std::max(max_size, r.size());
    }
    EXPECT_LE(max_size - min_size, 1u);
  }
}

// --- local kernels, parameterized over (kernel, threads, mode) -------------------

struct LocalCase {
  std::string kernel;
  int threads;
  VerifyMode mode;
};

std::string case_label(const LocalCase& c) {
  return c.kernel + "_t" + std::to_string(c.threads) + "_" + to_string(c.mode);
}

// ctest names carry gtest's printout of the parameter. Without this it
// prints the struct's raw bytes, which hold a heap pointer and so change
// on every run of the test binary.
void PrintTo(const LocalCase& c, std::ostream* os) { *os << case_label(c); }

std::string case_name(const ::testing::TestParamInfo<LocalCase>& info) {
  return case_label(info.param);
}

class LocalKernelTest : public ::testing::TestWithParam<LocalCase> {};

TEST_P(LocalKernelTest, ValidatesAndRaisesNoDeadlock) {
  const LocalCase& param = GetParam();
  RunConfig config;
  config.threads = param.threads;
  config.scale = 1;

  std::unique_ptr<Verifier> verifier;
  if (param.mode == VerifyMode::kDetection) {
    verifier = std::make_unique<Verifier>(detection_config());
  } else if (param.mode == VerifyMode::kAvoidance) {
    VerifierConfig vc;
    vc.mode = VerifyMode::kAvoidance;
    verifier = std::make_unique<Verifier>(std::move(vc));
  }
  config.verifier = verifier.get();

  RunResult result = kernel_by_name(param.kernel).run(config);
  EXPECT_TRUE(result.valid) << param.kernel << ": " << result.detail;
  if (verifier) {
    EXPECT_EQ(verifier->stats().avoidance_interrupts, 0u);
    EXPECT_TRUE(verifier->reported().empty());
  }
}

std::vector<LocalCase> local_cases() {
  std::vector<LocalCase> cases;
  for (const char* kernel : {"BT", "CG", "FT", "MG", "RT", "SP"}) {
    for (int threads : {1, 4, 7}) {
      cases.push_back({kernel, threads, VerifyMode::kOff});
    }
    cases.push_back({kernel, 4, VerifyMode::kDetection});
    cases.push_back({kernel, 4, VerifyMode::kAvoidance});
  }
  // Course kernels ignore `threads` (intrinsic task structure).
  for (const char* kernel : {"SE", "FI", "FR", "BFS", "PS"}) {
    cases.push_back({kernel, 1, VerifyMode::kOff});
    cases.push_back({kernel, 1, VerifyMode::kDetection});
    cases.push_back({kernel, 1, VerifyMode::kAvoidance});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Suite, LocalKernelTest,
                         ::testing::ValuesIn(local_cases()), case_name);

// --- deterministic checksums across thread counts --------------------------------

TEST(KernelDeterminismTest, ChecksumIndependentOfThreads) {
  // CG is excluded: its dot products reduce rank partials, so the float
  // rounding legitimately depends on the partition (as in NPB itself).
  for (const char* name : {"BT", "SP", "RT"}) {
    RunConfig one;
    one.threads = 1;
    RunConfig many;
    many.threads = 6;
    RunResult a = kernel_by_name(name).run(one);
    RunResult b = kernel_by_name(name).run(many);
    EXPECT_EQ(a.checksum, b.checksum) << name;
  }
}

// --- registry -----------------------------------------------------------------

TEST(KernelRegistryTest, SuitesHavePaperLineups) {
  std::vector<std::string> npb;
  for (const Kernel& k : npb_kernels()) npb.push_back(k.name);
  EXPECT_EQ(npb, (std::vector<std::string>{"BT", "CG", "FT", "MG", "RT", "SP"}));
  std::vector<std::string> course;
  for (const Kernel& k : course_kernels()) course.push_back(k.name);
  EXPECT_EQ(course, (std::vector<std::string>{"SE", "FI", "FR", "BFS", "PS"}));
  EXPECT_THROW(kernel_by_name("NOPE"), std::out_of_range);
}

// --- distributed kernels ----------------------------------------------------------

class DistKernelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DistKernelTest, ValidatesUncheckedAndChecked) {
  const std::string& name = GetParam();
  const DistKernel* kernel = nullptr;
  for (const DistKernel& k : dist_kernels()) {
    if (k.name == name) kernel = &k;
  }
  ASSERT_NE(kernel, nullptr);

  DistRunConfig config;
  config.sites = 2;
  config.tasks_per_site = 2;
  config.scale = 1;

  // Unchecked.
  RunResult unchecked = kernel->run(config);
  EXPECT_TRUE(unchecked.valid) << name << ": " << unchecked.detail;

  // Checked: a live cluster with fast periods; no deadlock may be reported.
  dist::Cluster::Config cc;
  cc.site_count = 2;
  cc.publish_period = 20ms;
  cc.check_period = 20ms;
  std::atomic<int> reports{0};
  cc.on_deadlock = [&](dist::SiteId, const DeadlockReport&) { ++reports; };
  dist::Cluster cluster(cc);
  cluster.start();
  config.cluster = &cluster;
  RunResult checked = kernel->run(config);
  cluster.stop();
  EXPECT_TRUE(checked.valid) << name << ": " << checked.detail;
  EXPECT_EQ(reports.load(), 0) << name;
  EXPECT_EQ(unchecked.checksum, checked.checksum) << name;
}

INSTANTIATE_TEST_SUITE_P(Suite, DistKernelTest,
                         ::testing::Values("FT", "KMEANS", "JACOBI", "SSCA2",
                                           "STREAM"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(DistConfigTest, VerifierRoundRobinOverSites) {
  dist::Cluster::Config cc;
  cc.site_count = 3;
  dist::Cluster cluster(cc);
  DistRunConfig config;
  config.sites = 3;
  config.tasks_per_site = 2;
  config.cluster = &cluster;
  EXPECT_EQ(config.total_tasks(), 6);
  EXPECT_EQ(config.verifier_for(0), &cluster.site(0).verifier());
  EXPECT_EQ(config.verifier_for(1), &cluster.site(1).verifier());
  EXPECT_EQ(config.verifier_for(3), &cluster.site(0).verifier());
}

}  // namespace
}  // namespace armus::wl
