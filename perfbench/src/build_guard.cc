#include "build_guard.hh"

#include "common/host.hh"
#include "serve/json.hh"

namespace perfbench {

std::vector<std::string>
buildProblems()
{
    std::vector<std::string> problems;
#ifndef __OPTIMIZE__
    problems.push_back("built without optimisation");
#endif
#ifdef TACSIM_VERIFY_ENABLED
    problems.push_back("built with TACSIM_VERIFY_ENABLED");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    problems.push_back("built with a compiler sanitizer");
#endif
    return problems;
}

std::string
hostJsonMembers()
{
    using tacsim::serve::jsonQuote;
    return "\"cpus\": " + std::to_string(tacsim::hostCpus()) +
        ", \"compiler\": " + jsonQuote(tacsim::hostCompiler()) +
        ", \"os\": " + jsonQuote(tacsim::hostOs());
}

} // namespace perfbench
