(* Native execution of ELFies on the Vkernel machine: the stand-in for
   "just run the binary on Linux". See elfie_runner.mli. *)

open Elfie_machine
open Elfie_kernel

module Trace = Elfie_obs.Trace
module Metrics = Elfie_obs.Metrics

type outcome = {
  load_error : string option;
  stack_collision : bool;
  graceful : bool;
  fault : string option;
  machine_fault : (Machine.fault * int * int64) option;
  runaway : bool;
  exit_status : int option;
  app_retired : int64;
  app_cycles : int64;
  region_cpi : float;
  slice_cpi : float;
  total_retired : int64;
  stdout : string;
  threads : int;
}

let failed_outcome ?(stack_collision = false) msg =
  {
    load_error = Some msg;
    stack_collision;
    graceful = false;
    fault = None;
    machine_fault = None;
    runaway = false;
    exit_status = None;
    app_retired = 0L;
    app_cycles = 0L;
    region_cpi = 0.0;
    slice_cpi = 0.0;
    total_retired = 0L;
    stdout = "";
    threads = 0;
  }

let runaway_fault_message = "runaway: max_ins exceeded"

let m_loader_runs =
  Metrics.counter "elfie_loader_runs_total"
    ~help:"ELFie loads attempted by the native runner, by result"

let m_region_instructions =
  Metrics.histogram "elfie_region_instructions"
    ~buckets:[ 1e3; 1e4; 1e5; 1e6; 1e7; 1e8 ]
    ~help:"Region instructions retired per graceful native run"

let m_region_cpi =
  Metrics.gauge "elfie_region_cpi"
    ~help:"Region cycles-per-instruction of the most recent native run"

let m_region_threads =
  Metrics.gauge "elfie_region_threads"
    ~help:"Threads alive at the end of the most recent native run"

let m_runaway_instructions =
  Metrics.counter "elfie_runaway_instructions_total"
    ~help:"Instructions retired by native runs that ended as runaways"

(* One label value per way a native run can end; also used as the
   closing attr of the runner.region span. *)
let outcome_result o =
  if o.load_error <> None then
    if o.stack_collision then "stack_collision" else "load_error"
  else if o.graceful then "graceful"
  else if o.runaway then "runaway"
  else if o.machine_fault <> None then "fault"
  else "failed"

(* The loader and region metrics of one finished run. [inherited] is
   what a resumed fork's machine had retired at the fork: the warm-up
   every trial shares, not this run's work. *)
let record ?(inherited = 0L) o =
  Metrics.inc m_loader_runs ~labels:[ ("result", outcome_result o) ];
  if o.graceful then
    Metrics.observe m_region_instructions (Int64.to_float o.app_retired);
  if o.runaway then
    Metrics.inc m_runaway_instructions
      ~by:(Int64.to_float (Int64.sub o.total_retired inherited));
  Metrics.set m_region_cpi o.region_cpi;
  Metrics.set m_region_threads (float_of_int o.threads)

(* Metrics + span epilogue shared by every path that produced a final
   outcome. *)
let finish ?inherited sp o =
  record ?inherited o;
  Trace.end_span sp
    ~attrs:
      [
        ("result", Trace.S (outcome_result o));
        ("retired", Trace.I o.app_retired);
        ("cpi", Trace.F o.region_cpi);
      ];
  o

(* Outcome of a machine whose [run] has returned: graceful-exit
   analysis, fault extraction, region/slice counter windows. Shared by
   the one-shot [run] path and by [resume]d forks. *)
let collect_outcome machine kernel =
  let threads = Machine.threads machine in
      let armed = List.filter (fun th -> th.Machine.counter_target <> None) threads in
      (* Graceful = every armed thread either hit its region instruction
         count or exited cleanly through the application's own exit path
         (a region covering the program's end terminates that way, with
         spin-dependent per-thread counts) — and the process actually
         terminated. An ELFie that loops past its fired region counters
         without exiting (the hang failure class) is not graceful: the
         instruction cap stops it as a runaway. *)
      let still_running =
        List.exists (fun th -> th.Machine.state = Machine.Runnable) threads
      in
      let graceful =
        armed <> []
        && (not still_running)
        && List.for_all
             (fun th ->
               th.Machine.counter_fired || th.Machine.state = Machine.Exited 0)
             armed
      in
      let machine_fault =
        List.find_map
          (fun th ->
            match th.Machine.state with
            | Machine.Faulted f ->
                Some (f, th.Machine.tid, Int64.of_int th.Machine.retired)
            | Machine.Runnable | Machine.Exited _ -> None)
          threads
      in
      (* A thread still runnable once [Machine.run] returns means the
         machine-wide instruction cap stopped a run that was never going
         to end on its own — the diverged-and-looping failure mode. *)
      let runaway = (not graceful) && still_running in
      let exit_status =
        List.find_map
          (fun th ->
            match th.Machine.state with
            | Machine.Exited s when s <> 0 && not th.Machine.counter_fired ->
                Some s
            | Machine.Exited _ | Machine.Runnable | Machine.Faulted _ -> None)
          armed
      in
      let fault =
        match machine_fault with
        | Some (f, tid, _) ->
            Some (Format.asprintf "tid %d: %a" tid Machine.pp_fault f)
        | None -> if runaway then Some runaway_fault_message else None
      in
      let app_retired =
        Int64.of_int
          (List.fold_left
             (fun acc th -> acc + th.Machine.retired - th.Machine.arm_retired)
             0 armed)
      in
      let app_cycle_delta th = Int64.of_int (th.Machine.cycles - th.Machine.arm_cycles) in
      let app_cycles = List.fold_left (fun m th -> max m (app_cycle_delta th)) 0L armed in
      let cycles_sum = List.fold_left (fun a th -> Int64.add a (app_cycle_delta th)) 0L armed in
      (* Slice-only CPI: counters re-read at the warmup mark, when present. *)
      let slice_cpi =
        let marked =
          List.filter_map
            (fun th ->
              match th.Machine.mark_retired with
              | Some mr when th.Machine.retired - mr > 0 ->
                  Some
                    ( Int64.of_int (th.Machine.retired - mr),
                      Int64.of_int (th.Machine.cycles - th.Machine.mark_cycles) )
              | Some _ | None -> None)
            armed
        in
        match marked with
        | [] ->
            if app_retired = 0L then 0.0
            else Int64.to_float cycles_sum /. Int64.to_float app_retired
        | _ ->
            let ins = List.fold_left (fun a (i, _) -> Int64.add a i) 0L marked in
            let cyc = List.fold_left (fun a (_, c) -> Int64.add a c) 0L marked in
            Int64.to_float cyc /. Int64.to_float ins
      in
      if List.exists (fun th -> th.Machine.mark_retired <> None) armed then
        Trace.instant "runner.warmup" ~attrs:[ ("slice_cpi", Trace.F slice_cpi) ];
      Trace.instant "runner.exit"
        ~attrs:
          [
            ("graceful", Trace.B graceful);
            ( "fault",
              Trace.S (match fault with Some f -> f | None -> "none") );
          ];
      {
        load_error = None;
        stack_collision = false;
        graceful;
        fault;
        machine_fault;
        runaway;
        exit_status;
        app_retired;
        app_cycles;
        region_cpi =
          (if app_retired = 0L then 0.0
           else Int64.to_float cycles_sum /. Int64.to_float app_retired);
        slice_cpi;
        total_retired = Machine.total_retired machine;
        stdout = Vkernel.stdout_contents kernel;
        threads = List.length threads;
      }

(* Boot the ELFie as every front-end does ([Run.instantiate]). A loader
   refusal becomes a failed outcome, paired with its span error attr. *)
let boot ~seed ~fs_init ~cwd image =
  match
    Elfie_pin.Run.instantiate
      (Elfie_pin.Run.spec ~argv:[ "elfie" ] ~env:[] ~fs_init ~cwd ~seed image)
  with
  | booted -> Ok booted
  | exception Loader.Exec_failed msg -> Error (msg, failed_outcome msg)
  | exception Loader.Stack_collision { reserved; needed; stack_top } ->
      Error
        ( "stack collision",
          failed_outcome ~stack_collision:true
            (Printf.sprintf
               "stack collision: only %d pages below 0x%Lx available (%d needed)"
               reserved stack_top needed) )

let run ?(seed = 11L) ?(fs_init = fun (_ : Fs.t) -> ()) ?(cwd = "/")
    ?(max_ins = 100_000_000L) (image : Elfie_elf.Image.t) =
  let sp = Trace.begin_span "runner.region" ~attrs:[ ("seed", Trace.I seed) ] in
  let load_sp = Trace.begin_span "runner.load" in
  match boot ~seed ~fs_init ~cwd image with
  | Error (error, o) ->
      Trace.end_span load_sp ~attrs:[ ("error", Trace.S error) ];
      finish sp o
  | Ok (machine, kernel) ->
      Trace.end_span load_sp;
      Elfie_pin.Tools.attach_global_profile machine;
      Machine.run ~max_ins machine;
      finish sp (collect_outcome machine kernel)

(* --- Warm once, fork per trial ----------------------------------------- *)

(* A machine run to its warmup mark and captured copy-on-write: the
   snapshot freezes the address space (no page copies) and the kernel
   is kept so each resumed trial can fork its FD table / heap state.
   Everything per-trial forks off this; the warmed parent itself is
   never resumed. *)
type warmed = { w_snapshot : Machine.snapshot; w_kernel : Vkernel.t }

let warmed_pages w = Machine.snapshot_page_count w.w_snapshot

let warm ?(seed = 11L) ?(fs_init = fun (_ : Fs.t) -> ()) ?(cwd = "/")
    ?(max_ins = 100_000_000L) (image : Elfie_elf.Image.t) =
  let sp = Trace.begin_span "runner.warm" ~attrs:[ ("seed", Trace.I seed) ] in
  match boot ~seed ~fs_init ~cwd image with
  | Error (error, o) ->
      record o;
      Trace.end_span sp ~attrs:[ ("error", Trace.S error) ];
      Error o
  | Ok (machine, kernel) ->
      Machine.set_stop_on_mark machine true;
      Elfie_pin.Tools.attach_global_profile machine;
      Machine.run ~max_ins machine;
      if Machine.stop_requested machine then begin
        (* A warmup mark fired: the machine stopped right after the mark
           instruction, warmed and snapshot-ready. *)
        let snap = Machine.snapshot machine in
        Trace.end_span sp
          ~attrs:
            [
              ("result", Trace.S "warmed");
              ("pages", Trace.I (Int64.of_int (Machine.snapshot_page_count snap)));
            ];
        Ok { w_snapshot = snap; w_kernel = kernel }
      end
      else begin
        (* Ran to completion without a mark (no warmup boundary in the
           image, or it faulted/exited first): the run was a full one,
           so it is recorded as one, and its outcome lets the caller
           fall back to one-shot runs. *)
        let o = collect_outcome machine kernel in
        record o;
        Trace.end_span sp ~attrs:[ ("result", Trace.S (outcome_result o)) ];
        Error o
      end

let resume ?(max_ins = 100_000_000L) ~seed w =
  let machine = Machine.fork ~reseed:seed w.w_snapshot in
  let inherited = Machine.total_retired machine in
  let kernel = Vkernel.fork w.w_kernel in
  Vkernel.install kernel machine;
  let sp =
    Trace.begin_span "runner.region"
      ~attrs:[ ("seed", Trace.I seed); ("forked", Trace.B true) ]
  in
  Elfie_pin.Tools.attach_global_profile machine;
  Machine.run ~max_ins machine;
  finish ~inherited sp (collect_outcome machine kernel)
