// Numbered names for storage tests: numbered("k", 17) is "k17".
//
// Spelled as an append, not as "k" + std::to_string(17): once GCC 12
// inlines operator+(const char*, std::string&&) it raises a false
// -Wrestrict inside char_traits.h.
#pragma once

#include <cstdint>
#include <string>

namespace deepnote::storage {

inline std::string numbered(std::string prefix, std::int64_t n) {
  prefix += std::to_string(n);
  return prefix;
}

}  // namespace deepnote::storage
