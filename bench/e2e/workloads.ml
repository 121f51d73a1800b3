(* The benchmark's workloads, in the order they run. *)
let all =
  [ Pinpoints.sim; Pinpoints.native; Record_replay.workload; Mt_sim.workload ]
