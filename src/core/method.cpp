#include <algorithm>
#include <cctype>
#include <stdexcept>

#include "core/options.hpp"

namespace spkadd::core {

namespace {

/// Canonical key for name lookups: lowercase, alphanumerics only, so
/// "Sliding Hash", "sliding-hash" and "SLIDING_HASH" all compare equal.
std::string normalized(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s)
    if (std::isalnum(static_cast<unsigned char>(c)))
      out.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
  return out;
}

}  // namespace

std::string method_name(Method m) {
  switch (m) {
    case Method::TwoWayIncremental: return "2-way Incremental";
    case Method::TwoWayTree: return "2-way Tree";
    case Method::Heap: return "Heap";
    case Method::Hash: return "Hash";
    case Method::SlidingHash: return "Sliding Hash";
    case Method::ReferenceIncremental: return "Ref(MKL) Incremental";
    case Method::ReferenceTree: return "Ref(MKL) Tree";
    case Method::Auto: return "Auto";
    case Method::DenseAcc: return "DenseAcc";
  }
  return "?";
}

Method method_from_name(const std::string& name) {
  // Every method_name() spelling normalizes into this table (round-trip),
  // plus the shorter aliases benches accept on their CLI.
  struct Entry {
    const char* key;
    Method method;
  };
  static const Entry entries[] = {
      {"2wayincremental", Method::TwoWayIncremental},
      {"twowayincremental", Method::TwoWayIncremental},
      {"2wayinc", Method::TwoWayIncremental},
      {"2waytree", Method::TwoWayTree},
      {"twowaytree", Method::TwoWayTree},
      {"heap", Method::Heap},
      {"hash", Method::Hash},
      {"slidinghash", Method::SlidingHash},
      {"sliding", Method::SlidingHash},
      {"refmklincremental", Method::ReferenceIncremental},
      {"referenceincremental", Method::ReferenceIncremental},
      {"refincremental", Method::ReferenceIncremental},
      {"refmkltree", Method::ReferenceTree},
      {"referencetree", Method::ReferenceTree},
      {"reftree", Method::ReferenceTree},
      {"auto", Method::Auto},
      {"denseacc", Method::DenseAcc},
      {"dense", Method::DenseAcc},
  };
  const std::string key = normalized(name);
  for (const Entry& e : entries)
    if (key == e.key) return e.method;
  throw std::invalid_argument(
      "unknown SpKAdd method '" + name +
      "' (expected one of: 2way-incremental, 2way-tree, heap, hash, "
      "sliding-hash, dense, ref-incremental, ref-tree, auto)");
}

}  // namespace spkadd::core
