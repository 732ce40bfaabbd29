// Test fixture shared by the service tests: TPC-H Q6 written out as the
// two source files of a FILE request, with the session-free compile of
// exactly those files as the golden a FILE answer must match byte for byte.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/driver/compiler.hpp"
#include "src/support/source.hpp"
#include "src/tpch/tpch.hpp"

namespace tydi {

/// Q6 materialized as two files for the FILE verb, plus the session-free
/// compile of exactly those named sources (the golden a FILE answer must
/// match byte for byte).
struct Q6Files {
  std::string fletcher_path;
  std::string query_path;

  explicit Q6Files(const std::string& tag) {
    const std::string base =
        "/tmp/tydid_rc_" + tag + "_" + std::to_string(::getpid());
    fletcher_path = base + "_fletcher.td";
    query_path = base + "_q6.td";
    write(fletcher_path, tpch::fletcher_source());
    write(query_path, std::string(tpch::find_query("TPC-H 6")->source));
  }
  ~Q6Files() {
    std::remove(fletcher_path.c_str());
    std::remove(query_path.c_str());
  }
  static void write(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  void edit_query(const std::string& from, const std::string& to) const {
    std::string text;
    ASSERT_TRUE(support::read_file(query_path, text).is_ok());
    const std::size_t at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    write(query_path, text);
  }
  [[nodiscard]] std::string request() const {
    return "FILE " + fletcher_path + "," + query_path + " q6_i vhdl";
  }
  [[nodiscard]] std::string golden() const {
    std::vector<driver::NamedSource> sources;
    for (const std::string& path : {fletcher_path, query_path}) {
      driver::NamedSource& source = sources.emplace_back();
      source.name = path;
      EXPECT_TRUE(support::read_file(path, source.text).is_ok()) << path;
    }
    driver::CompileOptions options;
    options.top = "q6_i";
    driver::CompileResult r = driver::compile(sources, options);
    EXPECT_TRUE(r.success()) << r.report();
    return r.vhdl_text;
  }
};

}  // namespace tydi
