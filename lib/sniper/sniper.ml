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

type config = {
  cores : int;
  dispatch_width : int;
  l1 : Cache.config;
  l2 : Cache.config;
  llc : Cache.config;
  l1_miss_cycles : int;
  l2_miss_cycles : int;
  llc_miss_cycles : int;
  mispredict_cycles : int;
  syscall_cycles : int;
  stall_interval_ins : int;
  stall_cycles : int;
}

let gainestown ~cores =
  {
    cores;
    dispatch_width = 4;
    l1 = Cache.config ~size_bytes:32_768 ~ways:8 ~line_bytes:64;
    l2 = Cache.config ~size_bytes:262_144 ~ways:8 ~line_bytes:64;
    llc = Cache.config ~size_bytes:8_388_608 ~ways:16 ~line_bytes:64;
    l1_miss_cycles = 8;
    l2_miss_cycles = 30;
    llc_miss_cycles = 120;
    mispredict_cycles = 14;
    syscall_cycles = 400;
    stall_interval_ins = 2048;
    stall_cycles = 400;
  }

type result = {
  instructions : int64;
  per_thread_instructions : int64 array;
  runtime_cycles : int64;
  ipc : float;
  per_core_cycles : int64 array;
  end_condition_met : bool;
  completed : bool;
}

type end_condition = { pc : int64; count : int }

let profile_end_condition ?(exclude = (0L, 0L)) pb =
  let lo, hi = exclude in
  let hist : (int64, int) Hashtbl.t = Hashtbl.create 1024 in
  let last_pc = ref 0L in
  let machine, _kernel, _ = Elfie_pin.Replayer.materialize ~constrained:true pb in
  let tool =
    {
      (Elfie_pin.Pintool.empty ~name:"pc-profile") with
      on_ins =
        Some
          (fun _ pc _ ->
            if not (pc >= lo && pc < hi) then begin
              Hashtbl.replace hist pc
                (1 + Option.value ~default:0 (Hashtbl.find_opt hist pc));
              last_pc := pc
            end);
    }
  in
  let detach = Elfie_pin.Pintool.attach machine [ tool ] in
  Machine.run machine;
  detach ();
  { pc = !last_pc; count = Hashtbl.find hist !last_pc }

(* A core's cycle count in an all-float record, so the per-event
   additions store unboxed. *)
type clock = { mutable cycles : float }

type core_state = {
  clock : clock;
  l1 : Cache.t;
  l2 : Cache.t;
  predictor : Timing.Predictor.t;
}

type model = {
  cfg : config;
  cores : core_state array;
  llc : Cache.t;
  rng : Elfie_util.Rng.t;
  mutable enabled : bool;
  mutable per_thread : int array;
  mutable ec_count : int;
  mutable ec_met : bool;
}

let fresh_model cfg ~enabled =
  {
    cfg;
    cores =
      Array.init cfg.cores (fun _ ->
          {
            clock = { cycles = 0.0 };
            l1 = Cache.create cfg.l1;
            l2 = Cache.create cfg.l2;
            predictor = Timing.Predictor.create ();
          });
    llc = Cache.create cfg.llc;
    rng = Elfie_util.Rng.create 0xBADCAFEL;
    enabled;
    per_thread = Array.make 16 0;
    ec_count = 0;
    ec_met = false;
  }

let core_of model tid = model.cores.(tid mod model.cfg.cores)

let bump_thread model tid =
  if tid >= Array.length model.per_thread then begin
    let bigger = Array.make (tid + 8) 0 in
    Array.blit model.per_thread 0 bigger 0 (Array.length model.per_thread);
    model.per_thread <- bigger
  end;
  model.per_thread.(tid) <- model.per_thread.(tid) + 1

let mem_access model tid addr =
  let core = core_of model tid in
  let key = Cache.key addr in
  let penalty =
    if Cache.access core.l1 key then 0
    else if Cache.access core.l2 key then model.cfg.l1_miss_cycles
    else if Cache.access model.llc key then model.cfg.l2_miss_cycles
    else model.cfg.llc_miss_cycles
  in
  let c = core.clock in
  c.cycles <- c.cycles +. float_of_int penalty

let branch model tid pc taken =
  let core = core_of model tid in
  if Timing.Predictor.mispredicted core.predictor ~pc ~taken then begin
    let c = core.clock in
    c.cycles <- c.cycles +. float_of_int model.cfg.mispredict_cycles
  end

let tool model machine end_condition =
  let ins_cycles = 1.0 /. float_of_int model.cfg.dispatch_width in
  let on_ins tid pc ins =
    (match end_condition with
    | Some ec when pc = ec.pc ->
        model.ec_count <- model.ec_count + 1;
        if model.ec_count >= ec.count then begin
          model.ec_met <- true;
          Machine.request_stop machine
        end
    | Some _ | None -> ());
    if model.enabled then begin
      let c = (core_of model tid).clock in
      c.cycles <- c.cycles +. ins_cycles;
      if Elfie_util.Rng.int model.rng model.cfg.stall_interval_ins = 0 then
        c.cycles <- c.cycles +. float_of_int model.cfg.stall_cycles;
      bump_thread model tid;
      match Insn.classify ins with
      | Insn.K_syscall ->
          c.cycles <- c.cycles +. float_of_int model.cfg.syscall_cycles
      | K_alu | K_load | K_store | K_branch | K_call | K_vector | K_other -> ()
    end
  in
  {
    (Elfie_pin.Pintool.empty ~name:"sniper") with
    on_ins = Some on_ins;
    on_mem_read = Some (fun tid addr _ -> if model.enabled then mem_access model tid addr);
    on_mem_write = Some (fun tid addr _ -> if model.enabled then mem_access model tid addr);
    on_branch =
      Some (fun tid pc _target taken -> if model.enabled then branch model tid pc taken);
    on_marker = Some (fun _ _ -> model.enabled <- true);
  }

let record_metrics model r =
  let backend = [ ("backend", "sniper") ] in
  Metrics.inc m_sim_instructions ~labels:backend
    ~by:(Int64.to_float r.instructions);
  Metrics.set m_cache_miss_ratio ~labels:backend
    (Int64.to_float (Int64.of_int (Cache.misses model.llc))
    /. Float.max 1.0 (Int64.to_float r.instructions))

let end_sim_span sp r =
  Trace.end_span sp
    ~attrs:
      [
        ("instructions", Trace.I r.instructions);
        ("ipc", Trace.F r.ipc);
        ("completed", Trace.B r.completed);
      ]

let collect ?(completed = true) model =
  let per_core_cycles =
    Array.map (fun c -> Int64.of_float (Float.round c.clock.cycles)) model.cores
  in
  let runtime_cycles = Array.fold_left max 0L per_core_cycles in
  let n_threads =
    let rec last i = if i = 0 then 0 else if model.per_thread.(i - 1) > 0 then i else last (i - 1) in
    last (Array.length model.per_thread)
  in
  let per_thread_instructions =
    Array.map Int64.of_int (Array.sub model.per_thread 0 (max 1 n_threads))
  in
  let instructions = Array.fold_left Int64.add 0L per_thread_instructions in
  {
    instructions;
    per_thread_instructions;
    runtime_cycles;
    ipc =
      (if runtime_cycles = 0L then 0.0
       else Int64.to_float instructions /. Int64.to_float runtime_cycles);
    per_core_cycles;
    end_condition_met = model.ec_met;
    completed;
  }

let simulate_elfie ?end_condition ?(from_marker = true) ?(seed = 13L) ?fs_init
    ?cwd ?(max_ins = 100_000_000L) cfg image =
  let sp =
    Trace.begin_span "sniper.simulate"
      ~attrs:
        [
          ("source", Trace.S "elfie");
          ("cores", Trace.I (Int64.of_int (cfg : config).cores));
        ]
  in
  let machine, _kernel =
    Elfie_pin.Run.instantiate
      (Elfie_pin.Run.spec ~argv:[ "elfie" ] ~env:[] ?fs_init ?cwd ~seed
         ~kernel_cost:false image)
  in
  Elfie_pin.Tools.attach_global_profile machine;
  let model = fresh_model cfg ~enabled:(not from_marker) in
  let detach = Elfie_pin.Pintool.attach machine [ tool model machine end_condition ] in
  (* Cycle-driven scheduling: always advance the thread whose core is
     earliest in simulated time. This is what makes unconstrained
     multi-threaded simulation realistic — a thread held at a spin
     barrier keeps retiring wait-loop instructions until the slowest
     worker's *cycles* catch up, inflating instruction counts exactly as
     the paper observes for ELFies under Sniper. *)
  let quantum = 8 in
  let rec loop () =
    if (not (Machine.stop_requested machine)) && Machine.total_retired machine < max_ins
    then begin
      let best = ref None in
      List.iter
        (fun th ->
          if th.Machine.state = Machine.Runnable then
            let c = (core_of model th.Machine.tid).clock.cycles in
            match !best with
            | Some (_, bc) when bc <= c -> ()
            | Some _ | None -> best := Some (th.Machine.tid, c))
        (Machine.threads machine);
      match !best with
      | None -> ()
      | Some (tid, _) ->
          let steps = ref 0 in
          while
            !steps < quantum
            && (Machine.thread machine tid).Machine.state = Machine.Runnable
            && not (Machine.stop_requested machine)
          do
            Machine.step machine tid;
            incr steps
          done;
          loop ()
    end
  in
  loop ();
  detach ();
  Machine.flush_core_metrics machine;
  (* Complete = the end condition fired or every thread exited; a loop
     that stopped only because of the instruction cap did not finish. *)
  let completed =
    model.ec_met
    || List.for_all
         (fun th -> th.Machine.state <> Machine.Runnable)
         (Machine.threads machine)
  in
  let r = collect ~completed model in
  record_metrics model r;
  end_sim_span sp r;
  r

let simulate_pinball ?end_condition cfg pb =
  let sp =
    Trace.begin_span "sniper.simulate"
      ~attrs:
        [
          ("source", Trace.S "pinball");
          ("cores", Trace.I (Int64.of_int (cfg : config).cores));
        ]
  in
  let machine, _kernel, _div = Elfie_pin.Replayer.materialize ~constrained:true pb in
  Elfie_pin.Tools.attach_global_profile machine;
  let model = fresh_model cfg ~enabled:true in
  let detach = Elfie_pin.Pintool.attach machine [ tool model machine end_condition ] in
  Machine.run machine;
  detach ();
  let r = collect model in
  record_metrics model r;
  end_sim_span sp r;
  r
