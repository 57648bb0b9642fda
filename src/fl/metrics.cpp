#include "fl/metrics.h"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.h"
#include "util/table.h"

namespace apf::fl {

// lint-apf: allow-entry-check(pure formatter; any SimulationResult is valid)
void write_round_csv(const SimulationResult& result, std::ostream& os) {
  os << "round,test_accuracy,train_loss,bytes_per_client,"
        "cumulative_bytes_per_client,frozen_fraction,round_seconds,"
        "cumulative_seconds\n";
  os << std::setprecision(8);
  for (const auto& r : result.rounds) {
    os << r.round << ',';
    if (r.test_accuracy >= 0.0) os << r.test_accuracy;
    os << ',' << r.train_loss << ',' << r.bytes_per_client << ','
       << r.cumulative_bytes_per_client << ',' << r.frozen_fraction << ','
       << r.round_seconds << ',' << r.cumulative_seconds << '\n';
  }
}

void write_round_csv_file(const SimulationResult& result,
                          const std::string& path) {
  std::ofstream os(path);
  APF_CHECK_MSG(os.good(), "cannot open '" << path << "' for writing");
  write_round_csv(result, os);
}

// lint-apf: allow-entry-check(pure formatter; any SimulationResult is valid)
std::string summarize(const SimulationResult& result) {
  std::ostringstream oss;
  oss << "best=" << TablePrinter::fmt(result.best_accuracy, 3)
      << " final=" << TablePrinter::fmt(result.final_accuracy, 3)
      << " bytes/client="
      << TablePrinter::fmt_bytes(result.total_bytes_per_client)
      << " sim_time=" << TablePrinter::fmt(result.total_seconds, 1) << "s"
      << " avg_frozen="
      << TablePrinter::fmt_percent(result.mean_frozen_fraction);
  return oss.str();
}

}  // namespace apf::fl
