// Shared JSON string escaping for every emitter in the tree (the
// daemon's stats verb, the bench SampleLog, the metrics registry's
// render_json). One definition so a
// tenant name containing '"', '\' or a control byte can never yield an
// invalid document from ANY surface.
//
// Thread-safety contract: pure function over its argument — safe from
// any thread.
#pragma once

#include <string>
#include <string_view>

namespace spkadd::util {

/// Escape `in` for embedding inside a double-quoted JSON string:
/// '"' and '\' are backslash-escaped, \b \f \n \r \t use their short
/// forms, and every other control byte (< 0x20) becomes \u00XX. The
/// surrounding quotes are the caller's.
[[nodiscard]] std::string json_escape(std::string_view in);

}  // namespace spkadd::util
