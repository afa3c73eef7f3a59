// Minimal --key=value command-line parsing for benches and examples.
//
// Deliberately tiny: flags are "--name=value" or "--name value"; "--help"
// prints registered flags. Every has()/get_*() records the name it looked
// up, and reject_unknown() — called once a main has read all its flags —
// throws for any flag that was passed but never read (a typo silently
// changing an experiment's parameters is the failure mode we care about).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace gcs {

class CliFlags {
 public:
  /// Parses argv. Throws gcs::Error on malformed input.
  CliFlags(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Throws gcs::Error naming every passed flag that no has()/get_*()
  /// call has looked up. Call after the last flag is read.
  void reject_unknown() const;

  /// True when --help was passed; callers should print usage and exit 0.
  bool help_requested() const noexcept { return help_; }

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::optional<std::string> lookup(const std::string& name) const;

  std::map<std::string, std::string> values_;
  /// Names looked up so far. Lookups write it, so a CliFlags is read from
  /// one thread (a main's flag parsing), like argv itself.
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
  bool help_ = false;
};

/// Splits a comma-separated flag value ("a,b,c"); empty tokens are
/// dropped. The shape every list-valued --flag in the tools uses.
std::vector<std::string> split_csv(const std::string& text);

}  // namespace gcs
