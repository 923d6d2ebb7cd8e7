// Typed output for the benchmark: a JSON writer that tracks nesting and
// separators itself, and a metric list whose entries carry name, value,
// unit and sample count together. Nothing the benchmark prints is built
// from hand-matched format strings.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(std::string_view k) {
    Separate();
    Quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }

  /// Shortest text that reads back as exactly `v` (all its digits).
  /// Non-finite values have no JSON spelling and are written as null.
  JsonWriter& Number(double v) {
    Separate();
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, res.ptr);
    return *this;
  }
  JsonWriter& Int(int64_t v) {
    Separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& Bool(bool v) {
    Separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  JsonWriter& String(std::string_view s) {
    Separate();
    Quote(s);
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char c) {
    Separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& Close(char c) {
    out_ += c;
    first_.pop_back();
    return *this;
  }
  // Emits the comma between siblings; a value right after its key takes
  // none.
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (first_.empty()) return;
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  void Quote(std::string_view s) {
    out_ += '"';
    for (char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\t': out_ += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            static const char kHex[] = "0123456789abcdef";
            out_ += "\\u00";
            out_ += kHex[(c >> 4) & 0xf];
            out_ += kHex[c & 0xf];
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

/// One reported metric. `samples` is how many observations the value was
/// computed from (statements, setups, drains).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

class MetricList {
 public:
  void Add(std::string name, double value, std::string unit,
           uint64_t samples) {
    items_.push_back(
        Metric{std::move(name), value, std::move(unit), samples});
  }
  const std::vector<Metric>& items() const { return items_; }
  const Metric* Find(std::string_view name) const {
    for (const Metric& m : items_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  /// True when every value is a finite number.
  bool AllFinite() const {
    for (const Metric& m : items_) {
      if (!std::isfinite(m.value)) return false;
    }
    return true;
  }

  /// {"name": {"value": v, "unit": u}, ...} — the shape of the result line.
  void WriteValues(JsonWriter* w) const {
    w->BeginObject();
    for (const Metric& m : items_) {
      w->Key(m.name).BeginObject();
      w->Key("value").Number(m.value);
      w->Key("unit").String(m.unit);
      w->EndObject();
    }
    w->EndObject();
  }
  /// Same, with the sample count of each metric (the detailed report).
  void WriteDetailed(JsonWriter* w) const {
    w->BeginObject();
    for (const Metric& m : items_) {
      w->Key(m.name).BeginObject();
      w->Key("value").Number(m.value);
      w->Key("unit").String(m.unit);
      w->Key("samples").Int(static_cast<int64_t>(m.samples));
      w->EndObject();
    }
    w->EndObject();
  }

 private:
  std::vector<Metric> items_;
};

}  // namespace perfbench
