// sanperf -- the unified experiment CLI over the declarative campaign API.
//
//   sanperf list                       enumerate registered scenarios + axes
//   sanperf run <scenario> [options]   run one scenario and render the table
//   sanperf diff <a.csv> <b.csv>       tolerance-aware comparison (CI goldens)
//
// Every paper figure/table, ablation and extension is a registered
// ScenarioSpec; this binary subsumes the per-figure driver binaries the
// repository used to carry. Grid enumeration goes through ShardSpace, so
// every scenario is parallel (--threads / SANPERF_THREADS) with
// bit-identical results at any thread count.
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/report.hpp"
#include "faults/plan.hpp"
#include "faults/synth.hpp"
#include "stats/ecdf.hpp"

namespace {

using namespace sanperf;

int usage(std::ostream& os, int code) {
  os << "usage:\n"
        "  sanperf list [--scale quick|default|full]\n"
        "  sanperf run <scenario> [--set axis=v1[,v2...]]... [--threads N]\n"
        "              [--scale quick|default|full] [--seed S]\n"
        "              [--format text|csv|json] [--out FILE]\n"
        "              [--fault-plan plan.json]\n"
        "  sanperf run <scenario> --list-axes [--scale ...]\n"
        "  sanperf run --all|--match <glob> --out-dir DIR [run options]\n"
        "  sanperf knee <scenario> [--axis offered_per_s] [--target RATIO]\n"
        "              [--iters N] [run options]\n"
        "  sanperf plan [--scope host|rack] [--domains N] [--shape K]\n"
        "              [--scale-ms MS] [--horizon-ms MS] [--downtime-ms MS]\n"
        "              [--seed S] [--out FILE] [--spec-out FILE]\n"
        "  sanperf diff <expected.csv> <actual.csv> [--tol REL]\n"
        "              [--ignore-cols a,b,c]\n"
        "  sanperf help\n"
        "\n"
        "Scenario axes are restricted with --set (e.g. --set n=3,5 --set\n"
        "timeout_ms=10); restricted runs reproduce the matching subset of the\n"
        "full grid bit for bit. --set names an axis the scenario does not\n"
        "define -> error (--list-axes prints the scenario's axes and their\n"
        "domains). --fault-plan injects the JSON fault plan into fault-aware\n"
        "scenarios in place of their axis-derived plans. --all / --match\n"
        "batch every (matching) registered scenario, writing one file per\n"
        "scenario into --out-dir (--set applies where the axis exists; an\n"
        "axis unknown to every matched scenario is an error). knee\n"
        "binary-searches the scenario's load axis for the saturation knee:\n"
        "the highest load whose delivered_per_s still covers --target\n"
        "(default 0.9) of the offered load on every grid row. plan\n"
        "synthesizes a FaultPlan JSON from a Weibull fault-rate spec\n"
        "(deterministic in --seed; feed the file back via --fault-plan).\n"
        "--downtime-ms inf makes each domain's first crash permanent.\n"
        "SANPERF_SCALE / SANPERF_THREADS are honoured when flags are absent.\n";
  return code;
}

/// Minimal glob: `*` any run, `?` any one char, everything else literal.
bool glob_match(std::string_view pattern, std::string_view text) {
  if (pattern.empty()) return text.empty();
  if (pattern.front() == '*') {
    for (std::size_t skip = 0; skip <= text.size(); ++skip) {
      if (glob_match(pattern.substr(1), text.substr(skip))) return true;
    }
    return false;
  }
  if (text.empty()) return false;
  if (pattern.front() != '?' && pattern.front() != text.front()) return false;
  return glob_match(pattern.substr(1), text.substr(1));
}

/// The scenario's axis named `name`, or null. Axes are scale-dependent in
/// their domains but not in their names, so any scale works for lookups.
const core::ParamAxis* find_axis(const std::vector<core::ParamAxis>& axes,
                                 std::string_view name) {
  for (const auto& axis : axes) {
    if (axis.name() == name) return &axis;
  }
  return nullptr;
}

/// Rejects a --set override naming an axis `spec` does not define: a typo
/// silently running the full grid is worse than an error.
void require_known_axes(const core::ScenarioSpec& spec, const core::RunOptions& options) {
  const auto axes = spec.axes(options.scale);
  for (const auto& [name, csv] : options.axis_overrides) {
    if (find_axis(axes, name) != nullptr) continue;
    std::string known;
    for (const auto& axis : axes) known += (known.empty() ? "" : ", ") + axis.name();
    throw std::invalid_argument{"scenario '" + spec.name + "' has no axis '" + name +
                                "' (axes: " + known + "); see sanperf run " + spec.name +
                                " --list-axes"};
  }
}

core::RunOptions with_known_axes(const core::ScenarioSpec& spec, const core::RunOptions& base) {
  // Batch runs share one --set list across scenarios with different axes:
  // apply each override only where the axis exists.
  core::RunOptions options = base;
  options.axis_overrides.clear();
  const auto axes = spec.axes(base.scale);
  for (const auto& [name, csv] : base.axis_overrides) {
    for (const auto& axis : axes) {
      if (axis.name() == name) options.axis_overrides.emplace(name, csv);
    }
  }
  return options;
}

core::Scale parse_scale(const std::string& name) {
  if (name == "quick") return core::Scale::quick();
  if (name == "default") return core::Scale::defaults();
  if (name == "full") return core::Scale::full();
  throw std::invalid_argument{"unknown scale '" + name + "' (quick|default|full)"};
}

std::string axis_domain(const core::ParamAxis& axis) {
  std::string out;
  for (const auto& v : axis.values()) {
    if (!out.empty()) out += ',';
    out += core::to_string(v);
  }
  return out;
}

int cmd_list(const core::Scale& scale) {
  const auto& registry = core::CampaignRegistry::global();
  core::print_banner(std::cout, "Registered scenarios (scale: " + scale.name() + ")");
  for (const auto& spec : registry.specs()) {
    std::cout << spec.name << "\n    " << spec.description << "\n";
    for (const auto& axis : spec.axes(scale)) {
      std::cout << "    --set " << axis.name() << "=" << axis_domain(axis) << "\n";
    }
    if (spec.needs_calibration) std::cout << "    (runs the Fig 6 calibration pass first)\n";
  }
  std::cout << "\n" << registry.specs().size()
            << " scenarios; run one with: sanperf run <name> [--set axis=value]\n";
  return 0;
}

/// Renders the table as text: aligned table, CDF curves for sample
/// columns, then the spec's paper-shape notes.
void render_text(std::ostream& os, const core::ScenarioSpec& spec,
                 const core::ResultTable& table, const core::Scale& scale) {
  core::print_banner(os, spec.name + " -- " + spec.description + " (scale: " + scale.name() +
                             ")");
  table.print(os);
  for (std::size_t c = 0; c < table.columns().size(); ++c) {
    if (table.columns()[c].type != core::ResultTable::ColumnType::kSample) continue;
    // Label each curve by the row's axis-like cells (ints/reals/strings).
    std::vector<std::pair<std::string, stats::Ecdf>> curves;
    for (std::size_t r = 0; r < table.row_count(); ++r) {
      const auto* sample = std::get_if<core::SampleRef>(&table.cell(r, c));
      if (sample == nullptr || sample->empty()) continue;
      // The first couple of scalar cells (n, timeout, kind, ...) identify
      // the row; the rest are results, not coordinates.
      std::string label;
      std::size_t parts = 0;
      for (std::size_t k = 0; k < table.columns().size() && parts < 2; ++k) {
        const auto& cell = table.cell(r, k);
        std::string part;
        if (const auto* i = std::get_if<std::int64_t>(&cell)) {
          part = table.columns()[k].name + "=" + std::to_string(*i);
        } else if (const auto* d = std::get_if<double>(&cell)) {
          part = table.columns()[k].name + "=" + core::fmt(*d);
        } else if (const auto* s = std::get_if<std::string>(&cell)) {
          part = *s;
        }
        if (part.empty()) continue;
        label += (label.empty() ? "" : " ") + part;
        ++parts;
      }
      curves.emplace_back(label.empty() ? "row " + std::to_string(r) : label,
                          stats::Ecdf{sample->values()});
      if (curves.size() == 10) break;  // readability cap for wide grids
    }
    if (!curves.empty()) {
      os << "\nCDF of " << table.columns()[c].name << ":\n";
      core::print_cdfs(os, curves, 20, table.columns()[c].name);
    }
  }
  if (!spec.notes.empty()) os << "\n" << spec.notes << "\n";
}

/// Renders `table` in `format` ("text" needs the spec + scale for notes).
std::string render(const core::ScenarioSpec& spec, const core::ResultTable& table,
                   const core::Scale& scale, const std::string& format) {
  std::ostringstream rendered;
  if (format == "csv") {
    table.write_csv(rendered);
  } else if (format == "json") {
    table.write_json(rendered);
    rendered << "\n";
  } else {
    render_text(rendered, spec, table, scale);
  }
  return rendered.str();
}

int cmd_run(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "sanperf run: missing scenario name\n";
    return usage(std::cerr, 2);
  }
  std::string name;
  std::size_t first_flag = 0;
  if (args[0].rfind("--", 0) != 0) {
    name = args[0];
    first_flag = 1;
  }
  core::RunOptions options;
  std::string format;
  std::optional<std::string> out_path;
  std::optional<std::string> out_dir;
  std::optional<std::string> match;
  bool list_axes = false;
  std::unique_ptr<core::ReplicationRunner> runner;

  for (std::size_t i = first_flag; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument{"missing value after " + arg};
      }
      return args[++i];
    };
    if (arg == "--set") {
      const std::string& kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument{"--set expects axis=value[,value...], got '" + kv + "'"};
      }
      options.axis_overrides[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else if (arg == "--threads") {
      const long n = std::stol(next());
      if (n < 1) throw std::invalid_argument{"--threads must be >= 1"};
      runner = std::make_unique<core::ReplicationRunner>(static_cast<std::size_t>(n));
      options.runner = runner.get();
    } else if (arg == "--scale") {
      options.scale = parse_scale(next());
    } else if (arg == "--seed") {
      options.seed = std::stoull(next());
    } else if (arg == "--format") {
      format = next();
      if (format != "text" && format != "csv" && format != "json") {
        throw std::invalid_argument{"--format must be text, csv or json"};
      }
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--out-dir") {
      out_dir = next();
    } else if (arg == "--all") {
      match = "*";
    } else if (arg == "--match") {
      match = next();
    } else if (arg == "--list-axes") {
      list_axes = true;
    } else if (arg == "--fault-plan") {
      const std::string& path = next();
      std::ifstream file{path};
      if (!file) throw std::invalid_argument{"cannot open fault plan '" + path + "'"};
      std::ostringstream text;
      text << file.rdbuf();
      options.fault_plan = faults::FaultPlan::from_json(text.str());
    } else {
      std::cerr << "sanperf run: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  const auto& registry = core::CampaignRegistry::global();

  // Batch mode: every registered scenario matching the glob, one file each.
  if (match) {
    if (!name.empty()) {
      std::cerr << "sanperf run: give either a scenario name or --all/--match\n";
      return usage(std::cerr, 2);
    }
    if (!out_dir) {
      std::cerr << "sanperf run: --all/--match needs --out-dir\n";
      return usage(std::cerr, 2);
    }
    if (out_path) {
      std::cerr << "sanperf run: --out is for a single scenario (batch mode writes one file "
                   "per scenario into --out-dir)\n";
      return usage(std::cerr, 2);
    }
    if (format.empty()) format = "csv";
    // An override no matched scenario understands is a typo, not a no-op.
    for (const auto& [axis_name, csv] : options.axis_overrides) {
      bool known = false;
      for (const auto& spec : registry.specs()) {
        if (glob_match(*match, spec.name) &&
            find_axis(spec.axes(options.scale), axis_name) != nullptr) {
          known = true;
          break;
        }
      }
      if (!known) {
        std::cerr << "sanperf run: no scenario matching '" << *match << "' has an axis '"
                  << axis_name << "'\n";
        return 2;
      }
    }
    std::filesystem::create_directories(*out_dir);
    const char* ext = format == "json" ? ".json" : format == "csv" ? ".csv" : ".txt";
    std::size_t ran = 0;
    for (const auto& spec : registry.specs()) {
      if (!glob_match(*match, spec.name)) continue;
      const auto path = std::filesystem::path{*out_dir} / (spec.name + ext);
      const core::ResultTable table = registry.run(spec, with_known_axes(spec, options));
      std::ofstream file{path};
      if (!file) {
        std::cerr << "sanperf run: cannot open '" << path.string() << "' for writing\n";
        return 1;
      }
      file << render(spec, table, options.scale, format);
      std::cout << "wrote " << spec.name << ": " << table.row_count() << " rows to "
                << path.string() << "\n";
      ++ran;
    }
    if (ran == 0) {
      std::cerr << "sanperf run: no scenario matches '" << *match << "'\n";
      return 2;
    }
    std::cout << ran << " scenario(s) written to " << *out_dir << "\n";
    return 0;
  }

  if (name.empty()) {
    std::cerr << "sanperf run: missing scenario name\n";
    return usage(std::cerr, 2);
  }
  if (out_dir) {
    std::cerr << "sanperf run: --out-dir is for --all/--match (use --out for one scenario)\n";
    return usage(std::cerr, 2);
  }
  if (format.empty()) format = "text";
  const core::ScenarioSpec* spec = registry.find(name);
  if (spec == nullptr) {
    std::cerr << "sanperf run: unknown scenario '" << name << "'; registered:\n";
    for (const auto& s : registry.specs()) std::cerr << "  " << s.name << "\n";
    return 2;
  }
  if (list_axes) {
    std::cout << spec->name << "\n    " << spec->description << "\n";
    for (const auto& axis : spec->axes(options.scale)) {
      std::cout << "    --set " << axis.name() << "=" << axis_domain(axis) << "\n";
    }
    return 0;
  }
  require_known_axes(*spec, options);

  const core::ResultTable table = registry.run(*spec, options);
  const std::string rendered = render(*spec, table, options.scale, format);
  if (out_path) {
    std::ofstream file{*out_path};
    if (!file) {
      std::cerr << "sanperf run: cannot open '" << *out_path << "' for writing\n";
      return 1;
    }
    file << rendered;
    std::cout << "wrote " << table.row_count() << " rows to " << *out_path << "\n";
  } else {
    std::cout << rendered;
  }
  return 0;
}

// --- knee --------------------------------------------------------------------

/// Binary-searches a scenario's load axis for the saturation knee: the
/// highest offered load whose delivered_per_s still covers `target` of the
/// load on *every* grid row (restrict other axes with --set to isolate one
/// configuration). Each probe is a normal restricted run, so knee results
/// are as reproducible as the scenario itself.
int cmd_knee(const std::vector<std::string>& args) {
  if (args.empty() || args[0].rfind("--", 0) == 0) {
    std::cerr << "sanperf knee: missing scenario name\n";
    return usage(std::cerr, 2);
  }
  const std::string name = args[0];
  core::RunOptions options;
  std::string axis_name = "offered_per_s";
  double target = 0.9;
  std::size_t iters = 10;
  std::unique_ptr<core::ReplicationRunner> runner;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument{"missing value after " + arg};
      }
      return args[++i];
    };
    if (arg == "--axis") {
      axis_name = next();
    } else if (arg == "--target") {
      target = std::stod(next());
      if (!(target > 0) || target > 1) {
        throw std::invalid_argument{"--target must be in (0, 1]"};
      }
    } else if (arg == "--iters") {
      iters = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--set") {
      const std::string& kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument{"--set expects axis=value[,value...], got '" + kv + "'"};
      }
      options.axis_overrides[kv.substr(0, eq)] = kv.substr(eq + 1);
    } else if (arg == "--scale") {
      options.scale = parse_scale(next());
    } else if (arg == "--seed") {
      options.seed = std::stoull(next());
    } else if (arg == "--threads") {
      const long n = std::stol(next());
      if (n < 1) throw std::invalid_argument{"--threads must be >= 1"};
      runner = std::make_unique<core::ReplicationRunner>(static_cast<std::size_t>(n));
      options.runner = runner.get();
    } else {
      std::cerr << "sanperf knee: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  const auto& registry = core::CampaignRegistry::global();
  const core::ScenarioSpec* spec = registry.find(name);
  if (spec == nullptr) {
    std::cerr << "sanperf knee: unknown scenario '" << name << "'\n";
    return 2;
  }
  require_known_axes(*spec, options);
  if (options.axis_overrides.count(axis_name) != 0) {
    throw std::invalid_argument{"--set must not fix the searched axis '" + axis_name + "'"};
  }
  const auto axes = spec->axes(options.scale);
  const core::ParamAxis* load_axis = find_axis(axes, axis_name);
  if (load_axis == nullptr) {
    throw std::invalid_argument{"scenario '" + name + "' has no load axis '" + axis_name +
                                "' (--axis to pick one)"};
  }
  std::size_t delivered_col = spec->columns.size();
  for (std::size_t c = 0; c < spec->columns.size(); ++c) {
    if (spec->columns[c].name == "delivered_per_s") delivered_col = c;
  }
  if (delivered_col == spec->columns.size()) {
    throw std::invalid_argument{"scenario '" + name +
                                "' has no delivered_per_s column; knee needs a throughput "
                                "scenario (e.g. load_latency_sweep)"};
  }

  // The axis domain brackets the search; its end points need not behave
  // (the whole point is finding where behaviour changes in between).
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& v : load_axis->values()) {
    const double x = std::holds_alternative<double>(v)
                         ? std::get<double>(v)
                         : static_cast<double>(std::get<std::int64_t>(v));
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  if (!(lo > 0) || !(hi > lo)) {
    throw std::invalid_argument{"axis '" + axis_name + "' needs a positive domain to search"};
  }

  const auto probe = [&](double load) {
    core::RunOptions o = options;
    std::ostringstream value;
    value.precision(17);
    value << load;
    o.axis_overrides[axis_name] = value.str();
    const core::ResultTable table = registry.run(*spec, o);
    double worst = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < table.row_count(); ++r) {
      const auto& cell = table.cell(r, delivered_col);
      const double delivered = std::holds_alternative<double>(cell) ? std::get<double>(cell) : 0;
      worst = std::min(worst, delivered / load);
    }
    const bool keeps_up = worst >= target;
    std::cout << "  probe " << core::fmt(load) << " /s: min delivered/offered = "
              << core::fmt(worst) << (keeps_up ? "  (keeps up)" : "  (saturated)") << "\n";
    return keeps_up;
  };

  std::cout << "knee search on " << name << "." << axis_name << " in [" << core::fmt(lo) << ", "
            << core::fmt(hi) << "] /s, target ratio " << core::fmt(target) << ":\n";
  if (!probe(lo)) {
    std::cout << "saturated already at the axis minimum: knee < " << core::fmt(lo) << " /s\n";
    return 0;
  }
  if (probe(hi)) {
    std::cout << "keeps up at the axis maximum: knee > " << core::fmt(hi) << " /s\n";
    return 0;
  }
  for (std::size_t it = 0; it < iters && (hi - lo) > 0.05 * lo; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  std::cout << "knee: between " << core::fmt(lo) << " and " << core::fmt(hi)
            << " /s (midpoint " << core::fmt(0.5 * (lo + hi)) << " /s)\n";
  return 0;
}

// --- plan --------------------------------------------------------------------

/// Synthesizes a FaultPlan from a Weibull fault-rate spec and writes it as
/// JSON (stdout or --out). The emitted plan is a pure function of the spec,
/// and the plan JSON round-trips (the command re-parses what it writes and
/// re-synthesizes from the spec as a self-check), so a checked-in plan file
/// replays bit-identically via `sanperf run ... --fault-plan plan.json`.
int cmd_plan(const std::vector<std::string>& args) {
  faults::WeibullPlanSpec spec;
  std::optional<std::string> out_path;
  std::optional<std::string> spec_out_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument{"missing value after " + arg};
      }
      return args[++i];
    };
    if (arg == "--scope") {
      spec.scope = next();
    } else if (arg == "--domains") {
      spec.domains = static_cast<std::size_t>(std::stoul(next()));
    } else if (arg == "--shape") {
      spec.shape = std::stod(next());
    } else if (arg == "--scale-ms") {
      spec.scale_ms = std::stod(next());
    } else if (arg == "--horizon-ms") {
      spec.horizon_ms = std::stod(next());
    } else if (arg == "--downtime-ms") {
      const std::string& v = next();
      spec.downtime_ms = (v == "inf" || v == "forever") ? faults::kForeverMs : std::stod(v);
    } else if (arg == "--seed") {
      spec.seed = std::stoull(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--spec-out") {
      spec_out_path = next();
    } else {
      std::cerr << "sanperf plan: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  const faults::FaultPlan plan = faults::synthesize_weibull_plan(spec);
  const std::string json = plan.to_json();

  // Self-check both round trips before anything is written: the plan JSON
  // must re-parse to the same serialization, and the spec must replay to
  // the same plan (the determinism contract --fault-plan relies on).
  if (faults::FaultPlan::from_json(json).to_json() != json) {
    std::cerr << "sanperf plan: internal error: plan JSON does not round-trip\n";
    return 1;
  }
  if (faults::synthesize_weibull_plan(faults::WeibullPlanSpec::from_json(spec.to_json()))
          .to_json() != json) {
    std::cerr << "sanperf plan: internal error: spec does not replay to the same plan\n";
    return 1;
  }

  if (spec_out_path) {
    std::ofstream file{*spec_out_path};
    if (!file) {
      std::cerr << "sanperf plan: cannot open '" << *spec_out_path << "' for writing\n";
      return 1;
    }
    file << spec.to_json() << "\n";
  }
  if (out_path) {
    std::ofstream file{*out_path};
    if (!file) {
      std::cerr << "sanperf plan: cannot open '" << *out_path << "' for writing\n";
      return 1;
    }
    file << json << "\n";
    std::cout << "wrote " << plan.events().size() << " event(s) to " << *out_path << "\n";
  } else {
    std::cout << json << "\n";
  }
  return 0;
}

// --- diff --------------------------------------------------------------------

struct DiffReport {
  std::size_t mismatches = 0;
  std::ostringstream detail;

  void note(const std::string& what) {
    if (++mismatches <= 20) detail << "  " << what << "\n";
  }
};

bool close(double a, double b, double tol) {
  if (std::isnan(a) && std::isnan(b)) return true;
  return std::abs(a - b) <= tol * std::max(std::abs(a), std::abs(b)) + 1e-12;
}

void diff_cell(const core::ResultTable& exp, const core::ResultTable& act, std::size_t r,
               std::size_t c, double tol, DiffReport& report) {
  const auto& col = exp.columns()[c];
  const auto& a = exp.cell(r, c);
  const auto& b = act.cell(r, c);
  const std::string where = col.name + " row " + std::to_string(r);
  if (a.index() != b.index()) {
    report.note(where + ": null/non-null mismatch");
    return;
  }
  using CT = core::ResultTable::ColumnType;
  switch (col.type) {
    case CT::kInt:
      if (std::holds_alternative<std::int64_t>(a) &&
          std::get<std::int64_t>(a) != std::get<std::int64_t>(b)) {
        report.note(where + ": " + std::to_string(std::get<std::int64_t>(a)) + " vs " +
                    std::to_string(std::get<std::int64_t>(b)));
      }
      break;
    case CT::kString:
      if (std::holds_alternative<std::string>(a) &&
          std::get<std::string>(a) != std::get<std::string>(b)) {
        report.note(where + ": '" + std::get<std::string>(a) + "' vs '" +
                    std::get<std::string>(b) + "'");
      }
      break;
    case CT::kReal:
      if (std::holds_alternative<double>(a) && !close(std::get<double>(a), std::get<double>(b), tol)) {
        report.note(where + ": " + core::fmt(std::get<double>(a), 6) + " vs " +
                    core::fmt(std::get<double>(b), 6));
      }
      break;
    case CT::kMeanCI: {
      if (!std::holds_alternative<stats::MeanCI>(a)) break;
      const auto& ca = std::get<stats::MeanCI>(a);
      const auto& cb = std::get<stats::MeanCI>(b);
      if (!close(ca.mean, cb.mean, tol) || !close(ca.half_width, cb.half_width, tol) ||
          !close(static_cast<double>(ca.count), static_cast<double>(cb.count), tol)) {
        report.note(where + ": mean " + core::fmt(ca.mean, 6) + " vs " + core::fmt(cb.mean, 6));
      }
      break;
    }
    case CT::kSample: {
      if (!std::holds_alternative<core::SampleRef>(a)) break;
      const auto& xa = std::get<core::SampleRef>(a).values();
      const auto& xb = std::get<core::SampleRef>(b).values();
      if (!close(static_cast<double>(xa.size()), static_cast<double>(xb.size()), tol)) {
        report.note(where + ": sample size " + std::to_string(xa.size()) + " vs " +
                    std::to_string(xb.size()));
        break;
      }
      // Compare distribution shape (means), not element-wise bits: shard
      // counts may differ slightly across standard libraries.
      stats::SummaryStats sa, sb;
      for (const double x : xa) sa.add(x);
      for (const double x : xb) sb.add(x);
      if (!close(sa.mean(), sb.mean(), tol)) {
        report.note(where + ": sample mean " + core::fmt(sa.mean(), 6) + " vs " +
                    core::fmt(sb.mean(), 6));
      }
      break;
    }
  }
}

int cmd_diff(const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::cerr << "sanperf diff: expected two CSV paths\n";
    return usage(std::cerr, 2);
  }
  double tol = 0.10;
  std::set<std::string> ignore_cols;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--tol" && i + 1 < args.size()) {
      tol = std::stod(args[++i]);
    } else if (args[i] == "--ignore-cols" && i + 1 < args.size()) {
      // Comma-separated column names excluded from the comparison (schema
      // still checked): wall-clock / machine-fact columns in goldens.
      std::istringstream list{args[++i]};
      for (std::string name; std::getline(list, name, ',');) {
        if (!name.empty()) ignore_cols.insert(name);
      }
    } else {
      std::cerr << "sanperf diff: unknown option '" << args[i] << "'\n";
      return usage(std::cerr, 2);
    }
  }
  const auto load = [](const std::string& path) {
    std::ifstream file{path};
    if (!file) throw std::invalid_argument{"cannot open '" + path + "'"};
    return core::ResultTable::from_csv(file);
  };
  const auto expected = load(args[0]);
  const auto actual = load(args[1]);

  DiffReport report;
  if (expected.name() != actual.name()) {
    report.note("table name: '" + expected.name() + "' vs '" + actual.name() + "'");
  }
  if (expected.columns().size() != actual.columns().size()) {
    report.note("column count: " + std::to_string(expected.columns().size()) + " vs " +
                std::to_string(actual.columns().size()));
  } else {
    for (std::size_t c = 0; c < expected.columns().size(); ++c) {
      if (expected.columns()[c].name != actual.columns()[c].name ||
          expected.columns()[c].type != actual.columns()[c].type) {
        report.note("column " + std::to_string(c) + " schema mismatch");
      }
    }
  }
  if (expected.row_count() != actual.row_count()) {
    report.note("row count: " + std::to_string(expected.row_count()) + " vs " +
                std::to_string(actual.row_count()));
  }
  if (report.mismatches == 0) {
    for (std::size_t r = 0; r < expected.row_count(); ++r) {
      for (std::size_t c = 0; c < expected.columns().size(); ++c) {
        if (ignore_cols.count(expected.columns()[c].name) != 0) continue;
        diff_cell(expected, actual, r, c, tol, report);
      }
    }
  }

  if (report.mismatches > 0) {
    std::cout << "sanperf diff: " << report.mismatches << " mismatch(es) beyond tol " << tol
              << " between " << args[0] << " and " << args[1] << ":\n"
              << report.detail.str();
    if (report.mismatches > 20) std::cout << "  ... (truncated)\n";
    return 1;
  }
  std::cout << "sanperf diff: tables match within tol " << tol << " (" << expected.row_count()
            << " rows)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args{argv + 1, argv + argc};
  if (args.empty()) return usage(std::cerr, 2);
  const std::string command = args[0];
  args.erase(args.begin());
  try {
    if (command == "help" || command == "--help" || command == "-h") {
      return usage(std::cout, 0);
    }
    if (command == "list") {
      core::Scale scale = core::Scale::from_env();
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--scale" && i + 1 < args.size()) {
          scale = parse_scale(args[++i]);
        } else {
          std::cerr << "sanperf list: unknown option '" << args[i] << "'\n";
          return usage(std::cerr, 2);
        }
      }
      return cmd_list(scale);
    }
    if (command == "run") return cmd_run(args);
    if (command == "knee") return cmd_knee(args);
    if (command == "plan") return cmd_plan(args);
    if (command == "diff") return cmd_diff(args);
    std::cerr << "sanperf: unknown command '" << command << "'\n";
    return usage(std::cerr, 2);
  } catch (const std::exception& e) {
    std::cerr << "sanperf " << command << ": " << e.what() << "\n";
    return 1;
  }
}
