// Copyright 2026 The streambid Authors
// Timestamped data tuples: immutable, reference-counted rows.

#ifndef STREAMBID_STREAM_TUPLE_H_
#define STREAMBID_STREAM_TUPLE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "stream/schema.h"

namespace streambid::stream {

/// Virtual time in seconds since the start of the simulation.
using VirtualTime = double;

/// One stream element: a schema, field values, and an event timestamp in
/// virtual time. A Tuple is a handle to an immutable row; copying it
/// bumps a reference count and never copies the values. A shared
/// operator therefore hands one row to every consumer inbox, window
/// buffer and sink history, and a row lives as long as any of them
/// holds it (sink history outlives the operator that produced it).
/// Producing a row costs two heap allocations: the row itself and its
/// values buffer.
class Tuple {
 public:
  Tuple(SchemaPtr schema, std::vector<Value> values, VirtualTime timestamp)
      : row_(std::make_shared<const Row>(std::move(schema),
                                         std::move(values), timestamp)) {
    STREAMBID_DCHECK(row_->schema != nullptr);
    STREAMBID_DCHECK(static_cast<int>(row_->values.size()) ==
                     row_->schema->num_fields());
  }

  const SchemaPtr& schema() const { return row_->schema; }
  VirtualTime timestamp() const { return row_->timestamp; }

  const Value& value(int i) const {
    STREAMBID_DCHECK(i >= 0 &&
                     i < static_cast<int>(row_->values.size()));
    return row_->values[static_cast<size_t>(i)];
  }

  /// Value of the field named `name` (CHECK-fails when absent).
  const Value& field(const std::string& name) const {
    const int idx = row_->schema->FieldIndex(name);
    STREAMBID_CHECK_GE(idx, 0);
    return value(idx);
  }

  const std::vector<Value>& values() const { return row_->values; }

  /// "(ts=1.5 sym=IBM price=42)" — debugging and sinks.
  std::string ToString() const {
    std::string out = "(ts=" + std::to_string(row_->timestamp);
    for (int i = 0; i < row_->schema->num_fields(); ++i) {
      out += " " + row_->schema->field(i).name + "=" + value(i).ToString();
    }
    out += ")";
    return out;
  }

 private:
  struct Row {
    Row(SchemaPtr s, std::vector<Value> v, VirtualTime ts)
        : schema(std::move(s)), values(std::move(v)), timestamp(ts) {}

    SchemaPtr schema;
    std::vector<Value> values;
    VirtualTime timestamp;
  };

  std::shared_ptr<const Row> row_;
};

}  // namespace streambid::stream

#endif  // STREAMBID_STREAM_TUPLE_H_
