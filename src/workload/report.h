#ifndef RESCQ_WORKLOAD_REPORT_H_
#define RESCQ_WORKLOAD_REPORT_H_

#include <cstdio>
#include <iosfwd>
#include <string>

#include "workload/batch.h"

namespace rescq {

// Tiny JSON-writer helpers shared by the batch and stream report
// writers — one escaping implementation, so the two reports cannot
// silently diverge.
std::string JsonEscape(const std::string& s);
const char* BoolName(bool b);

/// CSV, one row per cell plus a header row. Column order is part of the
/// schema (docs/WORKLOADS.md): every column up to and including
/// `oracle_resilience` (1-15) is deterministic for a given plan
/// regardless of thread count; `memo_hit`, `plan_cache_hit`, and
/// `wall_ms` come last because cache attribution and timing may
/// legitimately vary between runs.
void WriteReportCsv(const BatchReport& report, std::ostream& out);

/// JSON document (`rescq-batch-report/v6` — v4 added
/// `options.solver_threads`, v5 a `metrics` block holding the global
/// registry's rescq-metrics/v1 snapshot fields, empty objects unless
/// metrics collection was on, v6 each cell's `contingency` as
/// `[relation, row]` tuple ids):
/// {"schema", "options", "summary" (incl. plan_cache), "metrics",
/// "cells": [...]}.
void WriteReportJson(const BatchReport& report, std::ostream& out);

/// Human-readable per-cell table + summary line, as printed by
/// `rescq batch`.
void PrintReportTable(const BatchReport& report, std::FILE* out);

}  // namespace rescq

#endif  // RESCQ_WORKLOAD_REPORT_H_
