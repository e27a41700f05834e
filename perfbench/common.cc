#include "perfbench/common.h"

#include <signal.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "perfbench/towers.h"

extern char** environ;

namespace perfbench {

double Pct(std::vector<std::int64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string Str(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

namespace {
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}
}  // namespace

std::string Result::Json() const {
  std::string j = "{\"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"errors\": [";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    j += (i ? ", " : "") + Quote(errors[i]);
  }
  j += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    j += (first ? "" : ", ") + Quote(name) + ": {\"value\": " + Str(m.value) +
         ", \"unit\": " + Quote(m.unit) + "}";
    first = false;
  }
  j += "}, \"samples\": {";
  first = true;
  for (const auto& [name, n] : samples) {
    j += (first ? "" : ", ") + Quote(name) + ": " + std::to_string(n);
    first = false;
  }
  j += "}, \"info\": {";
  first = true;
  for (const auto& [name, v] : info) {
    j += (first ? "" : ", ") + Quote(name) + ": " + Quote(v);
    first = false;
  }
  return j + "}}";
}

double KvFile::Num(const std::string& k) const {
  auto it = lines.find(k);
  if (it == lines.end() || it->second.empty()) {
    return 0;
  }
  return std::strtod(it->second[0].c_str(), nullptr);
}

std::vector<std::int64_t> KvFile::List(const std::string& k) const {
  std::vector<std::int64_t> out;
  auto it = lines.find(k);
  if (it == lines.end()) {
    return out;
  }
  for (std::size_t i = 1; i < it->second.size(); ++i) {
    out.push_back(std::strtoll(it->second[i].c_str(), nullptr, 10));
  }
  return out;
}

KvFile ReadKv(const std::string& path) {
  KvFile kv;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ss(line);
    std::string key;
    if (!(ss >> key)) {
      continue;
    }
    std::vector<std::string> values;
    std::string v;
    while (ss >> v) {
      values.push_back(v);
    }
    kv.all.emplace(key, values);
    kv.lines[key] = std::move(values);
  }
  return kv;
}

int Spawn(const std::vector<std::string>& argv, const std::vector<std::string>& extra_env) {
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    env_strings.emplace_back(*e);
  }
  env_strings.insert(env_strings.end(), extra_env.begin(), extra_env.end());
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  std::vector<char*> env;
  for (const std::string& e : env_strings) {
    env.push_back(const_cast<char*>(e.c_str()));
  }
  env.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execve(args[0], args.data(), env.data());
    ::_exit(127);
  }
  return pid;
}

bool Reaped(int pid, bool* ok) {
  if (pid <= 0) {  // the fork failed: nothing to wait for
    *ok = false;
    return true;
  }
  int status = 0;
  if (::waitpid(pid, &status, WNOHANG) != pid) {
    return false;
  }
  *ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return true;
}

void KillAndReap(int pid) {
  if (pid <= 0) {
    return;
  }
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

bool WaitOrKill(int pid, std::int64_t timeout_ns) {
  const std::int64_t deadline = NowNs() + timeout_ns;
  bool ok = false;
  while (!Reaped(pid, &ok)) {
    if (NowNs() > deadline) {
      KillAndReap(pid);
      return false;
    }
    timespec nap{0, 100'000};
    nanosleep(&nap, nullptr);
  }
  return ok;
}

}  // namespace perfbench
