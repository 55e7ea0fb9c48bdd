#ifndef ECOSTORE_TELEMETRY_FLAT_JSON_H_
#define ECOSTORE_TELEMETRY_FLAT_JSON_H_

// Minimal reader/writer helpers for the flat one-line JSON objects the
// telemetry exporters produce: string values contain no escapes and
// there is no nesting, so a linear scan for "key": value pairs suffices
// (and keeps eco_report free of external JSON dependencies). Shared by
// the capture reader (export.cc) and the summary reader (analysis/).
//
// A record's scalar fields are declared once, as a list of RecordField
// (key + member); writers and readers walk that list.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace ecostore::telemetry {

/// A pointer to one scalar member of a flat record `S`, of any type a
/// telemetry record field has.
template <typename S>
using FieldMember =
    std::variant<bool S::*, uint8_t S::*, int16_t S::*, int32_t S::*,
                 int64_t S::*, uint64_t S::*, double S::*>;

/// One scalar field of a flat record: its JSON key and the member that
/// holds it.
template <typename S>
struct RecordField {
  const char* key;
  FieldMember<S> member;
  /// The value names an enclosure (event payloads only; see event.h).
  bool enclosure_id = false;
};

/// Calls fn(value) with a reference to the member of `record` that
/// `member` names, and returns what fn returns.
template <typename R, typename S, typename Fn>
decltype(auto) VisitField(R& record, const FieldMember<S>& member, Fn&& fn) {
  return std::visit([&](auto m) -> decltype(auto) { return fn(record.*m); },
                    member);
}

class FlatJson {
 public:
  explicit FlatJson(const std::string& line) {
    const char* p = line.c_str();
    while ((p = std::strchr(p, '"')) != nullptr) {
      const char* key_end = std::strchr(p + 1, '"');
      if (key_end == nullptr) break;
      std::string key(p + 1, key_end);
      const char* colon = key_end + 1;
      while (*colon == ' ') colon++;
      if (*colon != ':') {
        p = key_end + 1;
        continue;
      }
      const char* value = colon + 1;
      while (*value == ' ') value++;
      if (*value == '"') {
        const char* value_end = std::strchr(value + 1, '"');
        if (value_end == nullptr) break;
        keys_.emplace_back(std::move(key), std::string(value + 1, value_end));
        p = value_end + 1;
      } else {
        const char* value_end = value;
        while (*value_end != '\0' && *value_end != ',' && *value_end != '}') {
          value_end++;
        }
        keys_.emplace_back(std::move(key), std::string(value, value_end));
        p = value_end;
      }
    }
  }

  bool Has(const char* key) const { return Find(key) != nullptr; }

  std::string Str(const char* key, const std::string& fallback = "") const {
    const std::string* v = Find(key);
    return v != nullptr ? *v : fallback;
  }

  int64_t Int(const char* key, int64_t fallback = 0) const {
    const std::string* v = Find(key);
    return v != nullptr ? std::strtoll(v->c_str(), nullptr, 10) : fallback;
  }

  double Dbl(const char* key, double fallback = 0.0) const {
    const std::string* v = Find(key);
    return v != nullptr ? std::strtod(v->c_str(), nullptr) : fallback;
  }

  uint64_t U64(const char* key, uint64_t fallback = 0) const {
    const std::string* v = Find(key);
    return v != nullptr ? std::strtoull(v->c_str(), nullptr, 10) : fallback;
  }

  /// Reads `key` as a T field: a missing key reads as 0.
  template <typename T>
  T Get(const char* key) const {
    if constexpr (std::is_same_v<T, double>) {
      return Dbl(key);
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      return U64(key);
    } else if constexpr (std::is_same_v<T, bool>) {
      return Int(key) != 0;
    } else {
      return static_cast<T>(Int(key));
    }
  }

  /// Sets the member of `*record` that `member` names from `key`.
  template <typename S>
  void Read(const char* key, const FieldMember<S>& member, S* record) const {
    VisitField(*record, member, [&](auto& value) {
      value = Get<std::remove_reference_t<decltype(value)>>(key);
    });
  }

 private:
  const std::string* Find(const char* key) const {
    for (const auto& [k, v] : keys_) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  std::vector<std::pair<std::string, std::string>> keys_;
};

inline void AppendKV(std::string* out, const char* key, int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%lld", key,
                static_cast<long long>(value));
  *out += buf;
}

inline void AppendKVU(std::string* out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%llu", key,
                static_cast<unsigned long long>(value));
  *out += buf;
}

/// %.17g round-trips every finite double exactly, so energy values
/// survive a capture/parse cycle bit-for-bit (the ledger reconciliation
/// relies on this).
inline void AppendKVF(std::string* out, const char* key, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", key, value);
  *out += buf;
}

/// Appends `,"key":value` in the text of the value's type: AppendKVF for
/// a double, AppendKVU for a uint64_t, AppendKV for any other integer.
template <typename T>
void AppendField(std::string* out, const char* key, T value) {
  if constexpr (std::is_same_v<T, double>) {
    AppendKVF(out, key, value);
  } else if constexpr (std::is_same_v<T, uint64_t>) {
    AppendKVU(out, key, value);
  } else {
    AppendKV(out, key, static_cast<int64_t>(value));
  }
}

}  // namespace ecostore::telemetry

#endif  // ECOSTORE_TELEMETRY_FLAT_JSON_H_
