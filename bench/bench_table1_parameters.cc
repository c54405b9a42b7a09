// Table 1: Comparison of parameters defined for HEv1, HEv2 and the HEv3
// draft — regenerated from the library's presets so that documentation and
// implementation cannot drift apart. The draft keeps RFC 8305's timers, so
// its column reads rfc8305(); its SVCB / QUIC racing / ECH cell is the
// draft's constant, since no measured client implements those and the
// library models none of them.
#include <cstdio>

#include "he/options.h"
#include "util/table.h"
#include "util/time.h"

using namespace lazyeye;

int main() {
  const he::HeOptions v1 = he::HeOptions::rfc6555();
  const he::HeOptions v2 = he::HeOptions::rfc8305();
  const he::HeOptions& v3 = v2;

  TextTable table{{"Parameter", "HEv1 (2012)", "HEv2 (2017)",
                   "HEv3 (draft)"}};
  table.add_row({"Considered protocols", "IPv4, IPv6", "IPv4, IPv6, DNS",
                 "IPv4, IPv6, DNS, QUIC"});
  table.add_row({"DNS Records", "-", "AAAA, A", "SVCB, HTTPS, AAAA, A"});

  auto rd = [](const he::HeOptions& o) {
    return o.resolution_delay ? format_duration(*o.resolution_delay)
                              : std::string{"-"};
  };
  table.add_row({"Resolution Delay", rd(v1), rd(v2), rd(v3)});

  table.add_row({"Address selection", "IPv6 once, then IPv4",
                 "alternating IP family",
                 "alternating IP family and L4 protocol"});
  table.add_row({"Fixed Conn. Attempt Delay",
                 "150-250 ms (rec. " +
                     format_duration(v1.connection_attempt_delay) + ")",
                 format_duration(v2.connection_attempt_delay),
                 format_duration(v3.connection_attempt_delay)});

  auto dyn = [](const he::HeOptions& o) {
    return format_duration(o.dynamic_cad.minimum) + " / " +
           format_duration(he::kRecommendedMinimumCad) + " / " +
           format_duration(o.dynamic_cad.maximum);
  };
  table.add_row({"  Min/Rec./Max when dynamic", "-", dyn(v2), dyn(v3)});
  table.add_row({"Outcome cache TTL", format_duration(v1.cache_ttl),
                 format_duration(v2.cache_ttl), format_duration(v3.cache_ttl)});
  table.add_row({"SVCB / QUIC racing / ECH preference", "-", "-",
                 "yes / yes / yes"});

  std::printf("Table 1: Happy Eyeballs parameters per version "
              "(from library presets)\n\n%s\n",
              table.render().c_str());
  std::printf("Paper reference: RD 50 ms (v2/v3); fixed CAD 250 ms; dynamic "
              "CAD 10 ms / 100 ms / 2 s.\n");
  return 0;
}
