#include <gtest/gtest.h>

#include <cstdio>

#include "temp_path.h"
#include "workload/generator.h"
#include "workload/size_dist.h"
#include "workload/trace_io.h"

namespace m3 {
namespace {

TEST(TraceIo, RoundTripPreservesFlows) {
  const FatTree ft(FatTreeConfig::Small(2.0));
  const auto tm = TrafficMatrix::MatrixB(ft.num_racks(), ft.config().racks_per_pod);
  const auto sizes = MakeWebServer();
  WorkloadSpec spec;
  spec.num_flows = 300;
  spec.seed = 5;
  auto wl = GenerateWorkload(ft, tm, *sizes, spec);
  wl.flows[3].priority = 2;

  const std::string path = TempPath("m3_trace_test.txt");
  SaveTrace(path, ft, wl.flows);
  const auto loaded = LoadTrace(path, ft);
  ASSERT_EQ(loaded.size(), wl.flows.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded[i].id, wl.flows[i].id);
    EXPECT_EQ(loaded[i].src, wl.flows[i].src);
    EXPECT_EQ(loaded[i].dst, wl.flows[i].dst);
    EXPECT_EQ(loaded[i].size, wl.flows[i].size);
    EXPECT_EQ(loaded[i].arrival, wl.flows[i].arrival);
    EXPECT_EQ(loaded[i].priority, wl.flows[i].priority);
    EXPECT_TRUE(ft.topo().ValidateRoute(loaded[i].src, loaded[i].dst, loaded[i].path));
  }
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsCorruptInput) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  const std::string path = TempPath("m3_trace_bad.txt");

  auto write = [&](const char* body) {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(body, f);
    std::fclose(f);
  };
  write("not a trace\n1 0 1 100 0\n");
  EXPECT_THROW(LoadTrace(path, ft), std::runtime_error);
  write("m3-trace v1\n1 0 99999 100 0\n");  // host out of range
  EXPECT_THROW(LoadTrace(path, ft), std::runtime_error);
  write("m3-trace v1\n1 0 1 -5 0\n");  // bad size
  EXPECT_THROW(LoadTrace(path, ft), std::runtime_error);
  write("m3-trace v1\ngarbage line here\n");
  EXPECT_THROW(LoadTrace(path, ft), std::runtime_error);
  EXPECT_THROW(LoadTrace("/nonexistent/trace.txt", ft), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  const std::string path = TempPath("m3_trace_comments.txt");
  FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("m3-trace v1\n# comment\n\n7 0 9 1234 5000 1\n", f);
  std::fclose(f);
  const auto flows = LoadTrace(path, ft);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].id, 7);
  EXPECT_EQ(flows[0].size, 1234);
  EXPECT_EQ(flows[0].priority, 1);
  std::remove(path.c_str());
}

TEST(TraceIo, StatusCodesClassifyFailures) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  const std::string path = TempPath("m3_trace_status.txt");
  auto write = [&](const char* body) {
    FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(body, f);
    std::fclose(f);
  };

  EXPECT_EQ(LoadTraceOr("/nonexistent/trace.txt", ft).status().code(),
            StatusCode::kNotFound);

  write("not a trace\n");
  EXPECT_EQ(LoadTraceOr(path, ft).status().code(), StatusCode::kInvalidArgument);

  write("m3-trace v1\n1 0 1 100 0\ngarbage\nmore garbage\n");
  {
    const auto r = LoadTraceOr(path, ft);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    // Diagnostics must name the file and line of the offending record.
    EXPECT_NE(r.status().message().find(path + ":3"), std::string::npos)
        << r.status().ToString();
  }

  write("m3-trace v1\n1 0 1 100 0 9\n");  // priority out of range
  EXPECT_EQ(LoadTraceOr(path, ft).status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TraceIo, TruncatedFinalRecordIsDataLoss) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  const std::string path = TempPath("m3_trace_trunc.txt");
  FILE* f = std::fopen(path.c_str(), "w");
  // A valid record followed by a record cut mid-field with no trailing
  // newline: the signature of an interrupted copy.
  std::fputs("m3-trace v1\n1 0 9 1234 5000 1\n2 0 8 77", f);
  std::fclose(f);
  const auto r = LoadTraceOr(path, ft);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << r.status().ToString();
  // The throwing wrapper preserves the classification in its message.
  EXPECT_THROW(
      {
        try {
          LoadTrace(path, ft);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("DATA_LOSS"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceIo, SaveTraceOrRejectsForeignEndpoints) {
  const FatTree ft(FatTreeConfig::Small(1.0));
  Flow f;
  f.id = 0;
  f.src = ft.tor(0);  // a switch, not a host: no host index
  f.dst = ft.host(1);
  f.size = 100;
  const std::string path = TempPath("m3_trace_foreign.txt");
  EXPECT_EQ(SaveTraceOr(path, ft, {f}).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TraceIo, HostIndexOfInverseOfHost) {
  const FatTree ft(FatTreeConfig::Small(4.0));
  for (int i = 0; i < ft.num_hosts(); i += 17) {
    EXPECT_EQ(ft.HostIndexOf(ft.host(i)), i);
  }
  EXPECT_EQ(ft.HostIndexOf(ft.tor(0)), -1);
  EXPECT_EQ(ft.HostIndexOf(kInvalidNode), -1);
}

}  // namespace
}  // namespace m3
