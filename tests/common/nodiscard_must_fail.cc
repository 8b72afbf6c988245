// Deliberately discards a Status and a Result<int>. NOT part of any build
// target: CMake try_compiles this file with -Werror=unused-result at
// configure time and FAILS THE CONFIGURE if it compiles - i.e. the fixture
// proves the compiler, not a lint pass, rejects a silently dropped error
// (see "Discarded Status/Result" in the top-level CMakeLists.txt).
//
// Each function is a distinct discard the compiler must reject; if it ever
// stops diagnosing one, the other still fails the TU, and if it diagnoses
// neither the configure aborts.

#include "common/result.h"
#include "common/status.h"

namespace freshsel {

Status Save();
Result<int> Load();

// Violation 1: a discarded Status.
void DropStatus() { Save(); }

// Violation 2: a discarded Result<int>.
void DropResult() { Load(); }

}  // namespace freshsel
