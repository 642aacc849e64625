#include "check.hpp"

#include <algorithm>
#include <charconv>
#include <exception>
#include <string_view>

#include "util/json.hpp"

namespace perfbench {

Inspected inspect(const std::string& response) {
  Inspected in;
  try {
    const omega::JsonValue v = omega::JsonValue::parse(response);
    in.parsed = true;
    if (const omega::JsonValue* ok = v.find("ok")) in.ok = ok->as_bool();
    if (const omega::JsonValue* err = v.find("error")) {
      if (const omega::JsonValue* type = err->find("type")) {
        in.error_type = type->as_string();
      }
    }
    if (const omega::JsonValue* n = v.find("evaluated")) {
      in.evaluated = n->as_u64();
    }
  } catch (const std::exception&) {
    in.parsed = false;
  }
  return in;
}

std::optional<EvalCounters> split_eval_counters(const std::string& r) {
  constexpr std::string_view kRequests = "\"eval\":{\"term_requests\":";
  constexpr std::string_view kBuilds = ",\"term_builds\":";
  const std::size_t at = r.find(kRequests);
  if (at == std::string::npos) return std::nullopt;
  EvalCounters out;
  const char* p = r.data() + at + kRequests.size();
  const char* end = r.data() + r.size();
  auto parsed = std::from_chars(p, end, out.requests);
  if (parsed.ec != std::errc{} ||
      std::string_view(parsed.ptr, static_cast<std::size_t>(end - parsed.ptr))
              .rfind(kBuilds, 0) != 0) {
    return std::nullopt;
  }
  parsed = std::from_chars(parsed.ptr + kBuilds.size(), end, out.builds);
  if (parsed.ec != std::errc{}) return std::nullopt;
  out.rest = r.substr(0, at) + "#" +
             r.substr(static_cast<std::size_t>(parsed.ptr - r.data()));
  return out;
}

Verdict verdict(const GeneratedLine& g, const std::string& response,
                const std::string& reference, std::string& why) {
  why.clear();
  Verdict v = Verdict::kOk;
  if (response != reference) {
    const std::optional<EvalCounters> got = split_eval_counters(response);
    const std::optional<EvalCounters> want = split_eval_counters(reference);
    if (got && want && got->rest == want->rest &&
        got->requests >= want->requests && got->builds >= want->builds) {
      v = Verdict::kCounterCrosstalk;
    } else {
      const auto diff = std::mismatch(response.begin(), response.end(),
                                      reference.begin(), reference.end());
      const auto at = static_cast<std::size_t>(diff.first - response.begin());
      const std::size_t from = at > 40 ? at - 40 : 0;
      why = "differs from the in-process reference at byte " +
            std::to_string(at) + ": got ..." + response.substr(from, 100) +
            " expected ..." + reference.substr(from, 100);
      return Verdict::kBad;
    }
  }
  const Inspected in = inspect(response);
  if (!in.parsed) {
    why = "unparseable response";
  } else if (g.cls == LineClass::kError) {
    if (in.ok) {
      why = "deliberate error line answered ok";
    } else if (in.error_type != g.expect_error) {
      why = "error type " + in.error_type + ", expected " + g.expect_error;
    }
  } else if (!in.ok) {
    why = "valid line failed: " + in.error_type;
  }
  return why.empty() ? v : Verdict::kBad;
}

}  // namespace perfbench
