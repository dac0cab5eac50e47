#include "driver/validation.h"

#include <algorithm>

#include "bi/bi.h"
#include "bi/naive.h"

namespace snb::driver {

ValidationReport ValidateBiImplementations(
    const storage::Graph& graph, const params::WorkloadParameters& params,
    size_t bindings_per_query) {
  ValidationReport report;

  auto check = [&](const std::string& name, const auto& bindings,
                   auto&& optimized, auto&& naive_fn) {
    ++report.queries_checked;
    size_t n = std::min(bindings_per_query, bindings.size());
    bool mismatch = false;
    for (size_t i = 0; i < n; ++i) {
      ++report.bindings_checked;
      if (bi::RunSequential(optimized, graph, bindings[i]) !=
          naive_fn(graph, bindings[i])) {
        mismatch = true;
      }
    }
    if (mismatch) report.mismatched_queries.push_back(name);
  };

  check("BI 1", params.bi1, bi::RunBi1, bi::naive::RunBi1);
  check("BI 2", params.bi2, bi::RunBi2, bi::naive::RunBi2);
  check("BI 3", params.bi3, bi::RunBi3, bi::naive::RunBi3);
  check("BI 4", params.bi4, bi::RunBi4, bi::naive::RunBi4);
  check("BI 5", params.bi5, bi::RunBi5, bi::naive::RunBi5);
  check("BI 6", params.bi6, bi::RunBi6, bi::naive::RunBi6);
  check("BI 7", params.bi7, bi::RunBi7, bi::naive::RunBi7);
  check("BI 8", params.bi8, bi::RunBi8, bi::naive::RunBi8);
  check("BI 9", params.bi9, bi::RunBi9, bi::naive::RunBi9);
  check("BI 10", params.bi10, bi::RunBi10, bi::naive::RunBi10);
  check("BI 11", params.bi11, bi::RunBi11, bi::naive::RunBi11);
  check("BI 12", params.bi12, bi::RunBi12, bi::naive::RunBi12);
  check("BI 13", params.bi13, bi::RunBi13, bi::naive::RunBi13);
  check("BI 14", params.bi14, bi::RunBi14, bi::naive::RunBi14);
  check("BI 15", params.bi15, bi::RunBi15, bi::naive::RunBi15);
  check("BI 16", params.bi16, bi::RunBi16, bi::naive::RunBi16);
  check("BI 17", params.bi17, bi::RunBi17, bi::naive::RunBi17);
  check("BI 18", params.bi18, bi::RunBi18, bi::naive::RunBi18);
  check("BI 19", params.bi19, bi::RunBi19, bi::naive::RunBi19);
  check("BI 20", params.bi20, bi::RunBi20, bi::naive::RunBi20);
  check("BI 21", params.bi21, bi::RunBi21, bi::naive::RunBi21);
  check("BI 22", params.bi22, bi::RunBi22, bi::naive::RunBi22);
  check("BI 23", params.bi23, bi::RunBi23, bi::naive::RunBi23);
  check("BI 24", params.bi24, bi::RunBi24, bi::naive::RunBi24);
  check("BI 25", params.bi25, bi::RunBi25, bi::naive::RunBi25);

  return report;
}

}  // namespace snb::driver
