#include "experiment/protocol_registry.hh"

namespace busarb {

ProtocolFactory
protocolFactoryOrExit(const std::string &program, const std::string &text)
{
    const ProtocolRegistry &registry = ProtocolRegistry::builtin();
    return registry.instantiate(registry.parseSpecOrExit(program, text));
}

} // namespace busarb
