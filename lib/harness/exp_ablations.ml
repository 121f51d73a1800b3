(* Ablations of the design choices DESIGN.md calls out:

   A. region-selection policy — SimPoint clustering vs the naive
      baselines (periodic and random sampling) at equal region budget;
   B. fat vs lean pinballs — checkpoint size and what each can support;
   C. alternate-region fallback — how much coverage rank-1+ recovers;
   D. warmup length sweep on the warmup-sensitive gcc stand-in. *)

module Simpoint = Elfie_simpoint.Simpoint
module Perf = Elfie_perf.Perf
module Pinball = Elfie_pinball.Pinball

let trials = 2
let workdir = "/work"

(* Measure a set of (weight, start, length, warmup) regions of one
   benchmark and return the weighted CPI prediction error. *)
let error_of_selection rs ~whole_cpi regions =
  let requests =
    List.mapi
      (fun i (_, start, length, _) ->
        (string_of_int i, { Elfie_pin.Logger.start; length }))
      regions
  in
  let captured = Elfie_pin.Logger.capture_many rs requests in
  let measured =
    List.concat
      (List.mapi
         (fun i (weight, _, _, warmup) ->
           match List.assoc_opt (string_of_int i) captured with
           | Some { Elfie_pin.Logger.pinball; reached_end = true } ->
               let image, ss = Elfie_core.Pinball2elf.region ~warmup pinball in
               let sample =
                 Perf.elfie_region ~trials
                   ~fs_init:(fun fs -> Elfie_pin.Sysstate.install ss fs ~workdir)
                   ~cwd:workdir image
               in
               if sample.Perf.failures < trials then
                 [ (weight, sample.Perf.mean_cpi) ]
               else []
           | Some _ | None -> [])
         regions)
  in
  let covered = List.fold_left (fun a (w, _) -> a +. w) 0.0 measured in
  if covered <= 0.0 then None
  else begin
    let pred =
      List.fold_left (fun a (w, c) -> a +. (w *. c)) 0.0 measured /. covered
    in
    Some (Float.abs (whole_cpi -. pred) /. whole_cpi)
  end

(* --- A: selection policy -------------------------------------------------- *)

let policy_benchmarks = [ "505.mcf_r"; "525.x264_r"; "557.xz_r"; "541.leela_r" ]

let region_of_slice params idx weight =
  let slice_size = params.Simpoint.slice_size in
  let slice_start = Int64.mul (Int64.of_int idx) slice_size in
  let warmup = Int64.min params.Simpoint.warmup slice_start in
  (weight, Int64.sub slice_start warmup, Int64.add warmup slice_size, warmup)

let policy_study () =
  let params = Simpoint.default_params in
  let rows =
    List.map
      (fun name ->
        let b = Option.get (Elfie_workloads.Suite.find name) in
        let rs = Elfie_workloads.Programs.run_spec b.spec in
        let profile = Elfie_pin.Bbv.profile rs ~slice_size:params.Simpoint.slice_size in
        let sel = Simpoint.select ~params profile in
        let k = sel.Simpoint.k in
        let n = sel.Simpoint.num_slices in
        let whole_cpi = (Perf.whole_program ~trials rs).Perf.mean_cpi in
        let err_simpoint =
          error_of_selection rs ~whole_cpi
            (List.map
               (fun (r : Simpoint.region) ->
                 (r.weight, r.start, r.length, r.warmup_actual))
               sel.Simpoint.regions)
        in
        (* Periodic: k evenly spaced slices, equal weights. *)
        let periodic =
          List.init k (fun i -> region_of_slice params (i * n / k) (1.0 /. float_of_int k))
        in
        let err_periodic = error_of_selection rs ~whole_cpi periodic in
        (* Random: k uniformly drawn slices, equal weights. *)
        let rng = Elfie_util.Rng.create 0xABCDEFL in
        let random =
          List.init k (fun _ ->
              region_of_slice params (Elfie_util.Rng.int rng n) (1.0 /. float_of_int k))
        in
        let err_random = error_of_selection rs ~whole_cpi random in
        let cell = function Some e -> Render.pct e | None -> "-" in
        [ name; string_of_int k; cell err_simpoint; cell err_periodic;
          cell err_random ])
      policy_benchmarks
  in
  "A. Region-selection policy at equal region budget (prediction error):\n"
  ^ Render.table
      ~header:[ "benchmark"; "regions"; "SimPoint"; "periodic"; "random" ]
      rows

(* --- B: fat vs lean pinballs ----------------------------------------------- *)

let fat_lean_study () =
  let rows =
    List.map
      (fun name ->
        let b = Option.get (Elfie_workloads.Suite.find name) in
        let rs = Elfie_workloads.Programs.run_spec b.spec in
        let approx = Elfie_workloads.Programs.approx_instructions b.spec in
        let region =
          { Elfie_pin.Logger.start = Int64.div approx 3L; length = 100_000L }
        in
        let fat =
          (Elfie_pin.Logger.capture ~fat:true rs ~name:"fat" region).pinball
        in
        let lean =
          (Elfie_pin.Logger.capture ~fat:false rs ~name:"lean" region).pinball
        in
        let run pb =
          let ss = Elfie_pin.Sysstate.analyze pb in
          let image =
            Elfie_core.Pinball2elf.convert
              ~options:
                { Elfie_core.Pinball2elf.default_options with sysstate = Some ss }
              pb
          in
          let o =
            Elfie_core.Elfie_runner.run
              ~fs_init:(fun fs -> Elfie_pin.Sysstate.install ss fs ~workdir)
              ~cwd:workdir image
          in
          if o.Elfie_core.Elfie_runner.graceful then "graceful" else "failed"
        in
        [ b.Elfie_workloads.Suite.bname;
          Printf.sprintf "%d pages" (List.length fat.Pinball.pages);
          Printf.sprintf "%d pages" (List.length lean.Pinball.pages);
          run fat; run lean ])
      [ "505.mcf_r"; "525.x264_r" ]
  in
  "B. Fat vs lean pinballs (100k-instruction regions):\n"
  ^ Render.table
      ~header:
        [ "benchmark"; "fat image"; "lean image"; "fat ELFie"; "lean ELFie" ]
      rows
  ^ "(ELFies require fat pinballs in general: a lean image only holds the\n\
     pages the logged run touched, so any divergence faults.)\n"

(* --- C: alternate-region fallback ------------------------------------------ *)

let alternates_study () =
  let rows =
    List.map
      (fun name ->
        let b = Option.get (Elfie_workloads.Suite.find name) in
        let v1 = Pipeline.validate ~trials ~max_alternates:1 b in
        let v3 = Pipeline.validate ~trials ~max_alternates:3 b in
        let ranks_used =
          List.filter_map (fun ro -> ro.Pipeline.rank_used) v3.Pipeline.regions
          |> List.filter (fun r -> r > 0)
          |> List.length
        in
        [ name; Render.pct v1.Pipeline.coverage; Render.pct v3.Pipeline.coverage;
          string_of_int ranks_used ])
      [ "525.x264_r"; "557.xz_r"; "619.lbm_s" ]
  in
  "C. Alternate-region fallback:\n"
  ^ Render.table
      ~header:
        [ "benchmark"; "coverage (rank 0 only)"; "coverage (3 alternates)";
          "clusters using alternates" ]
      rows
  ^ "(With fat pinballs and SYSSTATE, rank-0 ELFies of these workloads\n\
     already re-execute reliably; the fallback guards against the failure\n\
     modes of study B — lean images — and multi-threaded divergence.)\n"

(* --- D: warmup sweep --------------------------------------------------------- *)

let warmup_study () =
  let b = Option.get (Elfie_workloads.Suite.find "502.gcc_r") in
  let rows =
    List.map
      (fun warmup ->
        let params = { Simpoint.default_params with warmup } in
        let v = Pipeline.validate ~params ~trials ~base_seed:2500L b in
        [ Int64.to_string warmup; Render.pct v.Pipeline.elfie_error ])
      [ 0L; 100_000L; 200_000L; 300_000L; 400_000L ]
  in
  "D. Warmup sweep on the warmup-sensitive gcc stand-in:\n"
  ^ Render.table ~header:[ "warmup (instructions)"; "prediction error" ] rows

(* --- E: checkpoint technology comparison ------------------------------------ *)

let checkpoint_comparison () =
  let b = Option.get (Elfie_workloads.Suite.find "525.x264_r") in
  let rs = Elfie_workloads.Programs.run_spec b.spec in
  let approx = Elfie_workloads.Programs.approx_instructions b.spec in
  let start = Int64.div approx 3L in
  (* CRIU-style whole-process snapshot at the region start. *)
  let machine, kernel = Elfie_pin.Run.instantiate rs in
  Elfie_machine.Machine.run ~max_ins:start machine;
  let criu = Elfie_criu.Criu.checkpoint machine kernel in
  (* Pinball and ELFie of a region starting at the same point. *)
  let pb =
    (Elfie_pin.Logger.capture rs ~name:"cmp"
       { Elfie_pin.Logger.start; length = 100_000L })
      .pinball
  in
  let ss = Elfie_pin.Sysstate.analyze pb in
  let elfie =
    Elfie_core.Pinball2elf.convert
      ~options:{ Elfie_core.Pinball2elf.default_options with sysstate = Some ss }
      pb
  in
  let pinball_bytes =
    List.fold_left (fun a (_, s) -> a + String.length s) 0
      (Elfie_pinball.Pinball.to_files pb)
  in
  "E. Checkpoint technologies on the same execution point (x264 stand-in):\n"
  ^ Render.table
      ~header:[ "artifact"; "size"; "stand-alone executable"; "bounded region" ]
      [ [ "CRIU-style image";
          Printf.sprintf "%d KiB" (Elfie_criu.Criu.image_bytes criu / 1024);
          "no (needs restore machinery)"; "no (open-ended)" ];
        [ "fat pinball";
          Printf.sprintf "%d KiB" (pinball_bytes / 1024);
          "no (needs the replayer)"; "yes (recorded icounts)" ];
        [ "ELFie";
          Printf.sprintf "%d KiB"
            (Bytes.length (Elfie_elf.Image.write elfie) / 1024);
          "yes"; "yes (armed counters)" ] ]

let run () =
  String.concat "\n"
    [ policy_study (); fat_lean_study (); alternates_study (); warmup_study ();
      checkpoint_comparison () ]
