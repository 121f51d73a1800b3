(* Dynamic analysis of a region via its ELFie — the paper's Section
   III-A use case.

   An ELFie is an ordinary executable, so any Pin-style analysis tool
   runs on it unmodified; the tool just (1) starts analysing at the ROI
   marker, skipping ELFie startup code, and (2) ends gracefully after
   the region's recorded instruction count. Here we run three analyses
   (instruction mix, memory footprint, branch profile) over one captured
   region in a single instrumented execution.

   Run with: dune exec examples/dynamic_analysis.exe *)

module Tools = Elfie_pin.Tools

let () =
  let bench = Option.get (Elfie_workloads.Suite.find "505.mcf_r") in
  let rs = Elfie_workloads.Programs.run_spec bench.spec in
  let approx = Elfie_workloads.Programs.approx_instructions bench.spec in

  (* Capture a region and convert it, with an SSC marker for the tools. *)
  let { Elfie_pin.Logger.pinball; _ } =
    Elfie_pin.Logger.capture rs ~name:"analysis_region"
      { Elfie_pin.Logger.start = Int64.div approx 2L; length = 150_000L }
  in
  let sysstate = Elfie_pin.Sysstate.analyze pinball in
  let image =
    Elfie_core.Pinball2elf.convert
      ~options:
        {
          Elfie_core.Pinball2elf.default_options with
          sysstate = Some sysstate;
          marker = Some (Elfie_core.Pinball2elf.Ssc 0xA11CE5L);
        }
      pinball
  in

  (* Load the ELFie and run three tools at once, from its marker. *)
  let region = Elfie_pinball.Pinball.total_icount pinball in
  let machine, _ =
    Elfie_pin.Run.instantiate
      (Elfie_pin.Run.spec ~argv:[ "elfie" ] ~env:[]
         ~fs_init:(fun fs -> Elfie_pin.Sysstate.install sysstate fs ~workdir:"/work")
         ~cwd:"/work" ~seed:21L image)
  in
  let mix = Tools.instruction_mix () in
  let fp = Tools.memory_footprint () in
  let br = Tools.branch_profile () in
  Tools.run ~from_marker:true ~limit:region ~max_ins:50_000_000L machine
    [ mix.tool; fp.tool; br.tool ];

  Printf.printf "region of %Ld instructions from %s\n\n" region bench.bname;
  Format.printf "%a@.@." Tools.pp_mix (mix.result ());
  Format.printf "%a@.@." Tools.pp_footprint (fp.result ());
  Format.printf "%a@." Tools.pp_branch_profile (br.result ())
