// cbc-lint fixture: MUST trigger L6 (std::sto* / ato* / strto* number
// parsing). Each call accepts text that is not the whole number it
// claims: "9100x" reads port 9100, "-2" wraps to a huge count, and
// "nan" passes as a drop rate.
#include <cstdlib>
#include <string>

namespace fixture {

int port_of(const std::string& endpoint) {
  return std::stoi(endpoint.substr(endpoint.rfind(':') + 1));
}

unsigned long long shard_count(const std::string& token) {
  return std::stoull(token);
}

double drop_rate(const char* token) { return std::strtod(token, nullptr); }

long retries(const char* token) { return std::atol(token); }

}  // namespace fixture
