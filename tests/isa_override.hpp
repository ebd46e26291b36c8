// Test helpers for runtime-ISA dispatch: force one MPCNN_ISA level for a
// scope, and list the levels this machine can execute.
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "core/cpu.hpp"

namespace mpcnn::isa_test {

// Forces MPCNN_ISA for one scope and rebinds every dispatch table;
// restores the prior environment (and rebinds again) on exit.
struct IsaOverride {
  std::string prior;
  bool had = false;

  explicit IsaOverride(const std::string& isa) {
    if (const char* p = std::getenv("MPCNN_ISA")) {
      had = true;
      prior = p;
    }
    ::setenv("MPCNN_ISA", isa.c_str(), 1);
    core::refresh_isa();
  }
  ~IsaOverride() {
    if (had) {
      ::setenv("MPCNN_ISA", prior.c_str(), 1);
    } else {
      ::unsetenv("MPCNN_ISA");
    }
    core::refresh_isa();
  }
  IsaOverride(const IsaOverride&) = delete;
  IsaOverride& operator=(const IsaOverride&) = delete;
};

// Every level this machine can execute, scalar first (the oracle run).
inline std::vector<std::string> supported_levels() {
  std::vector<std::string> levels;
  for (const core::Isa isa : core::supported_isas()) {
    levels.push_back(core::isa_name(isa));
  }
  return levels;
}

}  // namespace mpcnn::isa_test
