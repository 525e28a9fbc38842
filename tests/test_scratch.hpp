// Per-process scratch space for tests that write files.
//
// ctest runs every test case in its own process, concurrently under -j, so
// a fixed path under testing::TempDir() would be shared by processes that
// rebuild or remove it under each other. Each test process gets its own
// directory instead, removed when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace dedukt::test {

/// This process's scratch directory, created on first use.
inline const std::string& scratch_dir() {
  struct Dir {
    std::string path = ::testing::TempDir() + "/dedukt-test-" +
                       std::to_string(::getpid());
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// A path named `name` inside this process's scratch directory.
inline std::string scratch_path(const std::string& name) {
  return scratch_dir() + "/" + name;
}

/// An empty directory named `name` inside the scratch directory.
inline std::string fresh_dir(const std::string& name) {
  const std::string dir = scratch_path(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace dedukt::test
