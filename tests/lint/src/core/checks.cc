// tacsim-lint fixture: seeded raw-assert and banned-include violations.
#include <cassert>
#include <random> // tacsim-lint: allow(banned-include) fixture: reference-model generator, never on a simulated path
namespace fix {
static_assert(sizeof(int) >= 4, "compile-time checks are not flagged");
void
check(int x) {
    assert(x > 0);
}
void
checkAllowed(int x) {
    // tacsim-lint: allow(raw-assert) fixture: test-only invariant
    assert(x >= 0);
}
} // namespace fix
