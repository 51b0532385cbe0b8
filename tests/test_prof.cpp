/// \file test_prof.cpp
/// EnvCapture tests: the captured build and host facts are stable within a
/// process and survive a JSON round trip.

#include <gtest/gtest.h>

#include <sstream>

#include "pil/obs/json.hpp"
#include "pil/obs/prof.hpp"

namespace pil {
namespace {

TEST(Prof, EnvCaptureIsDeterministic) {
  const obs::EnvCapture a = obs::capture_env();
  const obs::EnvCapture b = obs::capture_env();
  EXPECT_EQ(a.git_sha, b.git_sha);
  EXPECT_EQ(a.compiler, b.compiler);
  EXPECT_EQ(a.compiler_flags, b.compiler_flags);
  EXPECT_EQ(a.build_type, b.build_type);
  EXPECT_EQ(a.cpu_model, b.cpu_model);
  EXPECT_EQ(a.hostname, b.hostname);
  EXPECT_EQ(a.os, b.os);
  EXPECT_EQ(a.core_count, b.core_count);

  EXPECT_FALSE(a.git_sha.empty());
  EXPECT_FALSE(a.compiler.empty());
  EXPECT_FALSE(a.os.empty());
  EXPECT_GT(a.core_count, 0);
}

TEST(Prof, EnvCaptureJsonRoundTrips) {
  const obs::EnvCapture env = obs::capture_env();
  std::ostringstream os;
  obs::JsonWriter w(os);
  env.write_json(w);
  const obs::JsonValue v = obs::parse_json(os.str());
  EXPECT_EQ(v.at("git_sha").str_v, env.git_sha);
  EXPECT_EQ(v.at("compiler").str_v, env.compiler);
  EXPECT_EQ(v.at("build_type").str_v, env.build_type);
  EXPECT_EQ(v.at("hostname").str_v, env.hostname);
  EXPECT_EQ(static_cast<int>(v.at("core_count").num_v), env.core_count);
}

}  // namespace
}  // namespace pil
