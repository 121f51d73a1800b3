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

(* A per-pc execution counter of the profiling run. *)
type pc_count = { at : int64; mutable n : int }

let profile_end_condition ?(exclude = (0L, 0L)) pb =
  let lo, hi = exclude in
  (* Each translated instruction outside [exclude] fetches its pc's
     counter once, and its before-call bumps it. *)
  let counters : (int64, pc_count) Hashtbl.t = Hashtbl.create 1024 in
  let none = { at = 0L; n = 0 } in
  let last = ref none in
  let machine, _kernel, _ =
    Elfie_pin.Replayer.materialize ~constrained:true ~native:false pb
  in
  let instrument pc _ =
    if pc >= lo && pc < hi then Machine.no_callouts
    else
      let c =
        match Hashtbl.find_opt counters pc with
        | Some c -> c
        | None ->
            let c = { at = pc; n = 0 } in
            Hashtbl.replace counters pc c;
            c
      in
      {
        Machine.no_callouts with
        before =
          Some
            (fun _ ->
              c.n <- c.n + 1;
              last := c);
      }
  in
  let detach =
    Elfie_pin.Pintool.attach machine
      [ { (Elfie_pin.Pintool.empty ~name:"pc-profile") with instrument = Some instrument } ]
  in
  Machine.run machine;
  detach ();
  if !last == none then raise Not_found;
  { pc = !last.at; count = !last.n }

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
  (* Retired count of the thread that enabled the model mid-quantum at
     which its modelled instructions start (its marker excluded). *)
  mutable enabled_at : int;
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
    enabled_at = 0;
    per_thread = Array.make 16 0;
    ec_count = 0;
    ec_met = false;
  }

let core_of model tid = model.cores.(tid mod model.cfg.cores)

let bump_thread model tid k =
  if tid >= Array.length model.per_thread then begin
    let bigger = Array.make (tid + 8) 0 in
    Array.blit model.per_thread 0 bigger 0 (Array.length model.per_thread);
    model.per_thread <- bigger
  end;
  model.per_thread.(tid) <- model.per_thread.(tid) + k

let mem_access model tid key =
  let core = core_of model tid in
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

(* The end condition, a before-call on the instruction at its pc only;
   it counts whether or not the model is timing yet. *)
let end_tool model machine = function
  | None -> []
  | Some ec ->
      let check _ =
        model.ec_count <- model.ec_count + 1;
        if model.ec_count >= ec.count then begin
          model.ec_met <- true;
          Machine.request_stop machine
        end
      in
      let at_ec = { Machine.no_callouts with before = Some check } in
      [ { (Elfie_pin.Pintool.empty ~name:"sniper-end") with
          instrument =
            Some (fun pc _ -> if pc = ec.pc then at_ec else Machine.no_callouts) } ]

(* The timing call-outs: caches on every access, the predictor on every
   branch, the syscall cost on every syscall. The per-instruction costs —
   [1/dispatch_width] cycles and a draw for a platform stall — are
   charged per run of a thread by [account]. *)
let timing_tool model =
  let mem tid key _ = mem_access model tid key in
  let plain = { Machine.before = None; read = Some mem; write = Some mem; branch = None } in
  let syscall tid =
    let c = (core_of model tid).clock in
    c.cycles <- c.cycles +. float_of_int model.cfg.syscall_cycles
  in
  let sys = { plain with before = Some syscall } in
  let instrument pc ins =
    match Insn.classify ins with
    | Insn.K_syscall -> sys
    | K_branch | K_call ->
        { plain with branch = Some (fun tid taken -> branch model tid pc taken) }
    | K_alu | K_load | K_store | K_vector | K_other -> plain
  in
  { (Elfie_pin.Pintool.empty ~name:"sniper") with instrument = Some instrument }

(* Charge a run of thread [tid] that took its executed count from [e0]
   to [e1]: only the part after the model was enabled counts. Every
   per-instruction addend is a multiple of 1/8, so the float sums are
   exact and the cycle counts between runs are those of charging each
   instruction in turn. *)
let account model ~was_enabled tid e0 e1 =
  if model.enabled then begin
    let from = if was_enabled then e0 else model.enabled_at in
    let k = e1 - from in
    if k > 0 then begin
      let c = (core_of model tid).clock in
      let interval = model.cfg.stall_interval_ins in
      for _ = 1 to k do
        if Elfie_util.Rng.int model.rng interval = 0 then
          c.cycles <- c.cycles +. float_of_int model.cfg.stall_cycles
      done;
      c.cycles <-
        c.cycles +. (float_of_int k *. (1.0 /. float_of_int model.cfg.dispatch_width));
      bump_thread model tid k
    end
  end

(* Run thread [tid] for up to [n] instructions through the chain and
   charge them; returns how many retired. *)
let run_charged model machine tid n =
  let th = Machine.thread machine tid in
  let was_enabled = model.enabled in
  let r0 = th.Machine.retired and e0 = Elfie_pin.Pintool.thread_executed th in
  ignore (Machine.run_quantum machine tid n);
  account model ~was_enabled tid e0 (Elfie_pin.Pintool.thread_executed th);
  th.Machine.retired - r0

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

let simulate_elfie ?end_condition ?fs_init ?cwd ?(max_ins = 100_000_000L) cfg
    image =
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
      (Elfie_pin.Run.spec ~argv:[ "elfie" ] ~env:[] ?fs_init ?cwd ~seed:13L
         ~native:false image)
  in
  Elfie_pin.Tools.attach_global_profile machine;
  let model = fresh_model cfg ~enabled:false in
  let detach_end = Elfie_pin.Pintool.attach machine (end_tool model machine end_condition) in
  (* The model starts timing after the ROI marker, mid-run. *)
  let detach =
    Elfie_pin.Pintool.attach_from_marker machine [ timing_tool model ]
      ~at_start:(fun tid ->
        model.enabled <- true;
        model.enabled_at <- (Machine.thread machine tid).Machine.retired + 1)
  in
  (* Cycle-driven scheduling: always advance the thread whose core is
     earliest in simulated time (the lowest tid on a tie), one quantum
     through the chain. This is what makes unconstrained multi-threaded
     simulation realistic — a thread held at a spin barrier keeps
     retiring wait-loop instructions until the slowest worker's
     *cycles* catch up, inflating instruction counts exactly as the
     paper observes for ELFies under Sniper. *)
  let quantum = 8 in
  let max_ins = Machine.count_of_int64 max_ins in
  let rec loop retired =
    if (not (Machine.stop_requested machine)) && retired < max_ins then begin
      let best = ref (-1) and best_cycles = ref infinity in
      for tid = 0 to Machine.thread_count machine - 1 do
        match (Machine.thread machine tid).Machine.state with
        | Machine.Runnable ->
            let c = (core_of model tid).clock.cycles in
            if c < !best_cycles then begin
              best := tid;
              best_cycles := c
            end
        | Exited _ | Faulted _ -> ()
      done;
      if !best >= 0 then loop (retired + run_charged model machine !best quantum)
    end
  in
  loop (Int64.to_int (Machine.total_retired machine));
  detach ();
  detach_end ();
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

let simulate_pinball ?end_condition cfg (pb : Elfie_pinball.Pinball.t) =
  let sp =
    Trace.begin_span "sniper.simulate"
      ~attrs:
        [
          ("source", Trace.S "pinball");
          ("cores", Trace.I (Int64.of_int (cfg : config).cores));
        ]
  in
  let machine, _kernel, _div =
    Elfie_pin.Replayer.materialize ~constrained:true ~native:false pb
  in
  Elfie_pin.Tools.attach_global_profile machine;
  let model = fresh_model cfg ~enabled:true in
  let detach =
    Elfie_pin.Pintool.attach machine
      (end_tool model machine end_condition @ [ timing_tool model ])
  in
  (* The recorded schedule, one slice at a time, exactly as a
     constrained [Machine.run] follows it. *)
  List.iter
    (fun (tid, n) ->
      if
        (not (Machine.stop_requested machine))
        && (Machine.thread machine tid).Machine.state = Machine.Runnable
      then ignore (run_charged model machine tid n))
    pb.Elfie_pinball.Pinball.schedule;
  detach ();
  Machine.flush_core_metrics machine;
  let r = collect model in
  record_metrics model r;
  end_sim_span sp r;
  r
