#include "common/cli.h"

#include <cstdlib>
#include <sstream>

#include "common/check.h"

namespace gcs {

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";  // bare flag == boolean true
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  return lookup(name).has_value();
}

void CliFlags::reject_unknown() const {
  std::string unknown;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) != 0) continue;
    unknown += (unknown.empty() ? "--" : ", --") + name;
  }
  if (!unknown.empty()) throw Error("unknown flag(s): " + unknown);
}

std::optional<std::string> CliFlags::lookup(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string CliFlags::get_string(const std::string& name,
                                 const std::string& fallback) const {
  return lookup(name).value_or(fallback);
}

std::int64_t CliFlags::get_int(const std::string& name,
                               std::int64_t fallback) const {
  const auto v = lookup(name);
  if (!v) return fallback;
  char* end = nullptr;
  const std::int64_t out = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    throw Error("flag --" + name + " expects an integer, got '" + *v + "'");
  }
  return out;
}

double CliFlags::get_double(const std::string& name, double fallback) const {
  const auto v = lookup(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double out = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    throw Error("flag --" + name + " expects a number, got '" + *v + "'");
  }
  return out;
}

bool CliFlags::get_bool(const std::string& name, bool fallback) const {
  const auto v = lookup(name);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw Error("flag --" + name + " expects a boolean, got '" + *v + "'");
}

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string token;
  while (std::getline(is, token, ',')) {
    if (!token.empty()) out.push_back(token);
  }
  return out;
}

}  // namespace gcs
