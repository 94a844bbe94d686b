// Copyright 2026 The streambid Authors
// The streaming admission gate in one page: a StreamIngress fronting a
// 2-shard cluster with two tiny per-tenant-class ticket pools. A burst
// of offers exhausts one class's pool — those requests shed BEFORE
// costing an auction slot, with a typed retry-after status — while the
// other class keeps flowing; the period drain hands the granted batch
// to the cluster and recycles the tickets.
//
// Build & run:  ./build/examples/firehose_quickstart

#include <cstdio>

#include "common/table.h"
#include "gate/stream_ingress.h"
#include "service/gate_status.h"
#include "stream/query_builder.h"
#include "stream/stream_source.h"

using namespace streambid;

namespace {

stream::QuerySubmission Tenant(int id, auction::UserId user, double bid,
                               double threshold) {
  stream::QueryBuilder b;
  const int src = b.Source("quotes");
  const int sel = b.Select(src, "price", stream::CompareOp::kGt,
                           stream::Value(threshold));
  stream::QuerySubmission sub;
  sub.query_id = id;
  sub.user = user;
  sub.bid = bid;
  sub.plan = b.Build(sel);
  return sub;
}

}  // namespace

int main() {
  cluster::ClusterOptions cluster_options;
  cluster_options.num_shards = 2;
  cluster_options.total_capacity = 4.0;
  cluster_options.mechanism = "cat";
  cluster_options.period_length = 60.0;
  cluster_options.seed = 7;
  cluster::ClusterCenter cluster(cluster_options, [](stream::Engine& e) {
    return e.RegisterSource(stream::MakeStockQuoteSource(
        "quotes", {"IBM", "AAPL", "MSFT"}, /*rate=*/100.0, 3));
  });

  gate::IngressOptions options;
  options.tenant_classes = 2;   // user id % 2 picks the class.
  options.tickets_per_class = 3;
  options.retry_after_periods = 1.0;
  gate::StreamIngress gate(&cluster, options);

  std::printf("== streaming admission gate: %d classes x %d tickets in "
              "front of a %d-shard cluster ==\n\n",
              options.tenant_classes, options.tickets_per_class,
              cluster.num_shards());

  // A burst of 8 even-user offers slams class 0 (3 tickets): the first
  // three hold tickets, the rest shed in O(1) with a retry hint.
  for (int i = 1; i <= 8; ++i) {
    const auction::UserId user = 2 * i;  // All class 0.
    const Status status =
        gate.Offer(Tenant(i, user, 50.0 - 3.0 * i, 96.0 + 4.0 * (i % 3)));
    if (status.ok()) {
      std::printf("offer %d (user %d): granted a class-0 ticket\n", i,
                  user);
    } else {
      std::printf("offer %d (user %d): SHED by pool %s — retry after "
                  "%.1f period(s)\n",
                  i, user, service::ShedPool(status).c_str(),
                  *service::RetryAfterPeriods(status));
    }
  }
  // Class 1 is unaffected by class 0's overload.
  const Status odd = gate.Offer(Tenant(9, 9, 40.0, 97.0));
  std::printf("offer 9 (user 9):  %s — classes shed independently\n\n",
              odd.ok() ? "granted a class-1 ticket" : "shed");

  // Close the period: the granted batch drains into the cluster's
  // auction and the tickets recycle.
  const auto gated = gate.ClosePeriod();
  if (!gated.ok()) {
    std::fprintf(stderr, "period failed: %s\n",
                 gated.status().ToString().c_str());
    return 1;
  }

  TextTable table({"pool", "capacity", "granted", "shed", "high_water"});
  for (const gate::TicketHolderStats& pool : gated->gate.pools) {
    table.AddRow({pool.name, FormatInt(pool.capacity),
                  FormatInt(pool.granted_immediate + pool.granted_queued),
                  FormatInt(pool.rejected + pool.timed_out),
                  FormatInt(pool.used_high_water)});
  }
  std::fputs(table.ToAligned().c_str(), stdout);

  std::printf("\nperiod 0: offered %lld, admitted %lld, shed %lld "
              "before the auction; cluster admitted %d of %d\n",
              static_cast<long long>(gated->gate.offered),
              static_cast<long long>(gated->gate.admitted),
              static_cast<long long>(gated->gate.shed),
              gated->report.admitted, gated->report.submissions);
  return 0;
}
