#include "common/sweep_flags.h"

#include "common/args.h"

namespace ihw::common {

SweepFlags SweepFlags::from_args(const Args& args) {
  SweepFlags f;
  f.cache_dir = args.get("cache-dir", "");
  f.resume = args.resume();
  f.isolate = args.get_bool("isolate", false);
  f.deadline_s = args.deadline();
  f.abft = parse_abft_flag(args);
  return f;
}

int parse_abft_flag(const Args& args) {
  const std::string v = args.get("abft", "off");
  if (v == "off") return 0;
  if (v == "detect") return 1;
  if (v == "recover") return 2;
  throw ArgError("--abft expects off|detect|recover, got \"" + v + "\"");
}

}  // namespace ihw::common
