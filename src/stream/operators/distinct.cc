// Copyright 2026 The streambid Authors

#include "stream/operators/distinct.h"

#include "common/check.h"

namespace streambid::stream {

DistinctOperator::DistinctOperator(SchemaPtr input_schema,
                                   std::string key_field,
                                   VirtualTime window,
                                   double cost_per_tuple)
    : OperatorBase("distinct(" + key_field +
                       " w=" + std::to_string(window) + ")",
                   cost_per_tuple),
      schema_(std::move(input_schema)),
      key_index_(schema_->FieldIndex(key_field)),
      window_(window) {
  STREAMBID_CHECK_GE(key_index_, 0);
  STREAMBID_CHECK_GT(window, 0.0);
}

void DistinctOperator::Process(int port, const Tuple& tuple,
                               std::vector<Tuple>* out) {
  STREAMBID_DCHECK(port == 0);
  (void)port;
  auto [it, fresh] = last_seen_.try_emplace(
      tuple.value(key_index_).ToKey(), tuple.timestamp());
  if (!fresh) {
    if (tuple.timestamp() - it->second < window_) {
      return;  // Duplicate within the window: suppressed.
    }
    it->second = tuple.timestamp();
  }
  out->push_back(tuple);
}

void DistinctOperator::AdvanceTime(VirtualTime now,
                                   std::vector<Tuple>* out) {
  (void)out;
  for (auto it = last_seen_.begin(); it != last_seen_.end();) {
    it = (now - it->second >= window_) ? last_seen_.erase(it)
                                       : std::next(it);
  }
}

void DistinctOperator::Reset() { last_seen_.clear(); }

}  // namespace streambid::stream
