/**
 * @file
 * Per-operation cost model of a BGP router system.
 *
 * The simulated routers execute the real protocol stack; this model
 * determines how many virtual CPU cycles each operation costs on a
 * given platform. The values for the four paper systems are derived
 * by inverting the additive cost model against the paper's Table III
 * (see system_profiles.cc for the arithmetic); the structure — what
 * is charged where — mirrors the XORP process pipeline described in
 * the paper's Figure 3 and the kernel data path of section IV.B.
 *
 * Stage accounting:
 *   - xorp_bgp: per-message parse, per-prefix decision, outbound
 *     update construction;
 *   - xorp_rib: Loc-RIB redistribution, IPC with bgp/fea;
 *   - xorp_fea: forwarding-engine abstraction, IPC with the kernel;
 *   - kernel ("system"): FIB writes and, on shared-data-path systems,
 *     packet forwarding; "interrupts" is the per-packet IRQ context.
 * On one core the stages serialise; on multiple cores they pipeline,
 * which is the mechanism behind the paper's uni/dual-core gap.
 */

#ifndef BGPBENCH_ROUTER_COST_MODEL_HH
#define BGPBENCH_ROUTER_COST_MODEL_HH

#include <cstdint>

#include "sim/time.hh"

namespace bgpbench::router
{

/** All per-operation costs of one platform, in CPU cycles. */
struct CostProfile
{
    /** @name Control plane: xorp_bgp (or the monolithic process)
     *  @{
     */
    /** Fixed cost of receiving one BGP message (socket + parse). */
    double msgParse = 0;
    /** Additional parse cost per wire byte. */
    double msgPerByte = 0;
    /** Adj-RIB-In update + decision process, per announced prefix. */
    double announcePrefix = 0;
    /** Adj-RIB-In removal + decision process, per withdrawn prefix. */
    double withdrawPrefix = 0;
    /** Adj-RIB-Out maintenance + update build, per prefix sent. */
    double advertisePrefix = 0;
    /** Fixed cost of emitting one outbound message. */
    double msgSend = 0;
    /**
     * Route-map evaluation cost per entry walked per evaluated
     * prefix, charged on import (per announced prefix) and export
     * (per advertised prefix) when the session carries a policy.
     * Zero keeps the paper's policy-free configuration.
     */
    double policyPerEntry = 0;
    /**
     * Serialisation latency per inbound BGP message in nanoseconds —
     * time the control process takes to get around to the next
     * message regardless of CPU availability. Dominant on the
     * commercial router, whose ~10 msg/s small-packet ceiling
     * (Table III) is a per-packet slow path, not a cycle shortage.
     */
    sim::SimTime msgGateNs = 0;
    /** @} */

    /** @name Control plane: rib / fea / kernel pipeline stages
     *  @{
     */
    /** xorp_rib work per Loc-RIB change. */
    double ribChange = 0;
    /** xorp_fea work per forwarding-table change pushed down. */
    double feaChange = 0;
    /** Kernel FIB insert of a new prefix. */
    double kernelRouteInstall = 0;
    /** Kernel FIB removal. */
    double kernelRouteRemove = 0;
    /** Kernel FIB replace of an existing prefix's next hop. */
    double kernelRouteReplace = 0;
    /** Cost of one inter-process message (charged per batch hop). */
    double ipcPerMessage = 0;
    /**
     * Maximum route changes per IPC batch for bulk installs and
     * removals. Replacements of existing routes flow as individual
     * change notifications and never batch — this is what keeps
     * scenarios 7/8 slow even with large packets (Table III).
     */
    uint32_t ipcBatchMax = 1;
    /** @} */

    /** @name Background processes
     *  @{
     */
    /** xorp_rtrmgr management overhead, cycles per second. */
    double rtrmgrCyclesPerSecond = 0;
    /** xorp_policy configuration traffic, cycles per second. */
    double policyCyclesPerSecond = 0;
    /** Session timer poll job, cycles per poll. */
    double sessionPollCycles = 0;
    /** @} */

    /** @name Data plane
     *  @{
     */
    /** Interrupt context cost per received data packet. */
    double irqPerPacket = 0;
    /** Kernel forwarding cost per packet (checksum, TTL, queueing). */
    double forwardPerPacket = 0;
    /**
     * Additional cost per lookup node visited, counted as the nodes a
     * per-bit trie would walk (ForwardResult::lookupNodesVisited).
     */
    double lookupPerNode = 0;
    /**
     * Input queue depth expressed as nanoseconds of kernel work;
     * packets arriving while the kernel backlog exceeds this are
     * dropped (receive ring overflow).
     */
    sim::SimTime queueLimitNs = 40'000'000; // 40 ms
    /** @} */
};

} // namespace bgpbench::router

#endif // BGPBENCH_ROUTER_COST_MODEL_HH
