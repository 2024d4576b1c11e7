// tacsim-lint fixture: seeded hot-path-container violations (this
// fixture lives under src/cache/, a hot-path directory).
#include <map>
#include <unordered_map>
namespace fix {
struct Index
{
    std::unordered_map<unsigned long, int> blocks_;
    // tacsim-lint: allow(hot-path-container) fixture: cold configuration table built once at startup
    std::map<int, int> config_;
    std::shared_ptr<Index> walk_;
};
inline auto fresh() { return std::make_shared<Index>(); }
} // namespace fix
