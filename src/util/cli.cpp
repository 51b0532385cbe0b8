#include "pil/util/cli.hpp"

namespace pil::util {

Args parse_cli(int argc, char** argv, int first,
               const std::set<std::string>& flags,
               const std::set<std::string>& value_options) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positional.push_back(a);
      continue;
    }
    const std::string name = a.substr(2);
    if (flags.count(name)) {
      args.options.emplace(name, "1");
    } else if (value_options.count(name)) {
      if (i + 1 >= argc) throw UsageError("option " + a + " needs a value");
      args.options[name] = argv[++i];
    } else {
      throw UsageError("unknown option " + a);
    }
  }
  return args;
}

}  // namespace pil::util
