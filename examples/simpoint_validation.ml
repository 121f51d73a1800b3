(* Validating simulation-region selection with ELFies — the paper's
   headline methodology (Section IV-A).

   The program is profiled into basic-block vectors, SimPoint picks
   representative regions, each region becomes an ELFie, and the
   whole-program CPI is predicted as the weight-averaged CPI of native
   ELFie runs. Comparing against the native whole-program CPI gives the
   prediction error in minutes instead of the weeks whole-program
   simulation would take.

   Run with: dune exec examples/simpoint_validation.exe [benchmark] *)

module Simpoint = Elfie_simpoint.Simpoint

let () =
  let name = try Sys.argv.(1) with Invalid_argument _ -> "557.xz_r" in
  let bench =
    match Elfie_workloads.Suite.find name with
    | Some b -> b
    | None ->
        Printf.eprintf "unknown benchmark %s\n" name;
        exit 2
  in
  let rs = Elfie_workloads.Programs.run_spec bench.spec in
  let params = Simpoint.default_params in

  (* Phase analysis. *)
  Printf.printf "profiling %s...\n%!" bench.bname;
  let profile = Elfie_pin.Bbv.profile rs ~slice_size:params.slice_size in
  let sel = Simpoint.select ~params profile in
  Format.printf "%a@." Simpoint.pp_selection sel;

  (* Ground truth: native whole-program CPI over three trials. *)
  let whole = Elfie_perf.Perf.whole_program ~trials:3 rs in
  Format.printf "whole-program: %a@." Elfie_perf.Perf.pp_sample whole;

  (* One ELFie per selected region, measured natively. *)
  let predictions =
    List.filter_map
      (fun (r : Simpoint.region) ->
        let captured =
          Elfie_pin.Logger.capture rs
            ~name:(Printf.sprintf "c%d" r.cluster)
            { Elfie_pin.Logger.start = r.start; length = r.length }
        in
        if not captured.reached_end then None
        else begin
          let ss = Elfie_pin.Sysstate.analyze captured.pinball in
          let image =
            Elfie_core.Pinball2elf.convert
              ~options:
                {
                  Elfie_core.Pinball2elf.default_options with
                  sysstate = Some ss;
                  warmup_mark =
                    (if r.warmup_actual > 0L then Some r.warmup_actual else None);
                }
              captured.pinball
          in
          let sample =
            Elfie_perf.Perf.elfie_region ~trials:3
              ~fs_init:(fun fs -> Elfie_pin.Sysstate.install ss fs ~workdir:"/work")
              ~cwd:"/work" image
          in
          Printf.printf "  cluster %d (weight %.3f): slice CPI %.3f\n%!" r.cluster
            r.weight sample.mean_cpi;
          if sample.failures < sample.trials then Some (r.weight, sample.mean_cpi)
          else None
        end)
      sel.regions
  in
  let covered = List.fold_left (fun a (w, _) -> a +. w) 0.0 predictions in
  match Simpoint.predict predictions with
  | None -> print_endline "no region ran gracefully: nothing to predict"
  | Some predicted ->
      let error =
        Float.abs (whole.mean_cpi -. predicted) /. whole.mean_cpi
      in
      Printf.printf
        "coverage %.1f%%  whole CPI %.3f  predicted CPI %.3f  error %.2f%%\n"
        (100.0 *. covered) whole.mean_cpi predicted (100.0 *. error)
