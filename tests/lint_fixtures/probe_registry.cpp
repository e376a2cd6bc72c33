// Fixture: a phase_<name>_ns string that names no registered probe phase
// must trip probe-registry. Not part of the build -- scanned by rdcn_lint.

#include <string>

namespace fixture {

std::string bogus_key() {
  return "phase_quantum_teleport_ns";  // planted: not in sim/probe.hpp
}

std::string real_key() {
  return "phase_inject_ns";  // registered phase: must NOT be flagged
}

}  // namespace fixture
