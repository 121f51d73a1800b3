open Elfie_isa
open Elfie_machine

module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics

(* Same families Coresim registers — the registry is get-or-create by
   name, so both handles resolve to one family. *)
let m_sim_instructions =
  Metrics.counter "elfie_sim_instructions_total"
    ~help:"User instructions simulated, by backend"

let m_cache_miss_ratio =
  Metrics.gauge "elfie_sim_cache_miss_ratio"
    ~help:"Last-level cache misses per simulated user instruction of \
           the most recent run, by backend"

type cpu_config = {
  name : string;
  rob_entries : int;
  issue_width : int;
  lsq_entries : int;
  int_regs : int;
  l1 : Cache.config;
  l2 : Cache.config;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  mispredict_cycles : int;
}

let nehalem =
  {
    name = "nehalem-like";
    rob_entries = 128;
    issue_width = 4;
    lsq_entries = 48;
    int_regs = 128;
    l1 = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64;
    l2 = Cache.config ~size_bytes:262_144 ~ways:8 ~line_bytes:64;
    l1_miss_cycles = 10;
    l2_miss_cycles = 180;
    mispredict_cycles = 17;
  }

let haswell =
  {
    name = "haswell-like";
    rob_entries = 192;
    issue_width = 8;
    lsq_entries = 72;
    int_regs = 168;
    l1 = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64;
    l2 = Cache.config ~size_bytes:262_144 ~ways:8 ~line_bytes:64;
    l1_miss_cycles = 10;
    l2_miss_cycles = 180;
    mispredict_cycles = 14;
  }

type result = {
  instructions : int64;
  cycles : int64;
  ipc : float;
  l2_misses : int64;
  completed : bool;
}

(* The cycle count in an all-float record, so the per-event additions
   store unboxed. It holds every penalty; the [1/issue_width] per
   instruction is added from the instruction count when read. *)
type clock = { mutable cycles : float }

type model = {
  cfg : cpu_config;
  l1 : Cache.t;
  l2 : Cache.t;
  predictor : Timing.Predictor.t;
  clock : clock;
  (* The overlap window hides part of each long-latency miss: a bigger
     ROB/LSQ keeps more independent work in flight. *)
  overlap_window : float;
}

let fresh cfg =
  {
    cfg;
    l1 = Cache.create cfg.l1;
    l2 = Cache.create cfg.l2;
    predictor = Timing.Predictor.create ();
    clock = { cycles = 0.0 };
    overlap_window =
      float_of_int (cfg.rob_entries / cfg.issue_width)
      +. (float_of_int cfg.lsq_entries /. 2.0)
      +. (float_of_int (cfg.int_regs - 96) /. 4.0);
  }

let mem_access model key =
  let penalty =
    if Cache.access model.l1 key then 0.0
    else if Cache.access model.l2 key then float_of_int model.cfg.l1_miss_cycles
    else
      (* Interval model: the ROB keeps issuing under the miss until it
         fills, so only the uncovered part of the latency stalls. *)
      Float.max 12.0 (float_of_int model.cfg.l2_miss_cycles -. model.overlap_window)
  in
  let c = model.clock in
  c.cycles <- c.cycles +. penalty

let branch model pc taken =
  if Timing.Predictor.mispredicted model.predictor ~pc ~taken then begin
    let c = model.clock in
    c.cycles <- c.cycles +. float_of_int model.cfg.mispredict_cycles
  end

let simulate_se ?(from_marker = true) ?fs_init ?cwd
    ?(max_ins = 100_000_000L) cfg image =
  let sp =
    Trace.begin_span "gem5.simulate"
      ~attrs:[ ("cpu", Trace.S cfg.name); ("mode", Trace.S "se") ]
  in
  let machine, _kernel =
    Elfie_pin.Run.instantiate
      (Elfie_pin.Run.spec ~argv:[ "elfie" ] ~env:[] ?fs_init ?cwd ~seed:13L
         ~kernel_cost:false image)
  in
  Elfie_pin.Tools.attach_global_profile machine;
  let model = fresh cfg in
  let clock = model.clock in
  let ins_cycles = 1.0 /. float_of_int cfg.issue_width in
  (* Each instruction's call-outs, chosen when it is translated.
     Instructions are counted from the machine's counters. *)
  let mem _ key _ = mem_access model key in
  let plain = { Machine.before = None; read = Some mem; write = Some mem; branch = None } in
  (* SSE2-era vector support: half throughput. *)
  let vector = { plain with before = Some (fun _ -> clock.cycles <- clock.cycles +. ins_cycles) } in
  let sys = { plain with before = Some (fun _ -> clock.cycles <- clock.cycles +. 120.0) } in
  let instrument pc ins =
    match Insn.classify ins with
    | Insn.K_vector -> vector
    | K_syscall -> sys
    | K_branch | K_call ->
        { plain with branch = Some (fun _ taken -> branch model pc taken) }
    | K_alu | K_load | K_store | K_other -> plain
  in
  let tool = { (Elfie_pin.Pintool.empty ~name:"gem5-se") with instrument = Some instrument } in
  let instructions =
    match Elfie_pin.Pintool.start_roi ~from_marker ~max_ins machine [ tool ] with
    | None -> 0
    | Some start ->
        Machine.run ~max_ins machine;
        Elfie_pin.Pintool.executed machine - start
  in
  let cycles = clock.cycles +. (float_of_int instructions *. ins_cycles) in
  let r =
    {
      instructions = Int64.of_int instructions;
      cycles = Int64.of_float (Float.round cycles);
      ipc = (if cycles = 0.0 then 0.0 else float_of_int instructions /. cycles);
      l2_misses = Int64.of_int (Cache.misses model.l2);
      completed =
        List.for_all
          (fun th -> th.Machine.state <> Machine.Runnable)
          (Machine.threads machine);
    }
  in
  let backend = [ ("backend", "gem5") ] in
  Metrics.inc m_sim_instructions ~labels:backend
    ~by:(Int64.to_float r.instructions);
  Metrics.set m_cache_miss_ratio ~labels:backend
    (Int64.to_float r.l2_misses /. Float.max 1.0 (Int64.to_float r.instructions));
  Trace.end_span sp
    ~attrs:
      [
        ("instructions", Trace.I r.instructions);
        ("ipc", Trace.F r.ipc);
        ("completed", Trace.B r.completed);
      ];
  r
