// Error-handling primitives for the OMEGA framework.
//
// We follow the C++ Core Guidelines: exceptions for errors that callers are
// expected to handle (invalid dataflow configurations, bad inputs), and
// `OMEGA_ASSERT`-style checks for programming errors that indicate a bug in
// the framework itself.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace omega {

/// Base class for all errors raised by the framework.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when a dataflow/mapping description violates the taxonomy rules
/// (Table II of the paper), e.g. SP-Optimized with a spatial N dimension.
class InvalidDataflowError : public Error {
 public:
  explicit InvalidDataflowError(const std::string& what) : Error(what) {}
};

/// Raised when an input (graph, matrix, configuration) is malformed.
class InvalidArgumentError : public Error {
 public:
  explicit InvalidArgumentError(const std::string& what) : Error(what) {}
};

/// Raised when a requested resource exceeds the modeled hardware
/// (e.g. tile footprint larger than the register file).
class ResourceError : public Error {
 public:
  explicit ResourceError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void throw_check_failure(const char* expr, const std::string& msg,
                                      const std::source_location& loc);
}  // namespace detail

/// Throws InvalidArgumentError with file/line context when `cond` is false.
/// Used to validate user-facing inputs; always enabled (not compiled out).
/// A statement: the optional message arguments (anything std::string can be
/// brace-initialized from) are evaluated only when the check fails, so hot
/// validation paths never build their message strings.
#define OMEGA_CHECK(cond, ...)                                            \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::omega::detail::throw_check_failure(                               \
          #cond, std::string{__VA_ARGS__}, std::source_location::current()); \
    }                                                                     \
  } while (0)

}  // namespace omega
