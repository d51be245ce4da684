type entry = {
  id : string;
  name : string;
  paper_artifact : string;
  run : ?quick:bool -> unit -> string;
}

let all =
  [
    {
      id = "E1";
      name = "fig4";
      paper_artifact = "Figure 4 (worked NE/OE/ST example)";
      run = E01_fig4.run;
    };
    {
      id = "E2";
      name = "extremes";
      paper_artifact = "Section 3.3 extremes, Theorems 2/3, Corollary 1";
      run = E02_extremes.run;
    };
    {
      id = "E3";
      name = "airline";
      paper_artifact = "Section 4.1 conflict-rate formula (cited eval)";
      run = E03_airline.run;
    };
    {
      id = "E4";
      name = "bboard-ne";
      paper_artifact = "cited eval: bulletin-board traffic vs NE bound";
      run = E04_bboard_ne.run;
    };
    {
      id = "E5";
      name = "bboard-oe";
      paper_artifact = "cited eval: read latency vs OE bound";
      run = E05_bboard_oe.run;
    };
    {
      id = "E6";
      name = "bboard-st";
      paper_artifact = "cited eval: overhead vs staleness bound";
      run = E06_bboard_st.run;
    };
    {
      id = "E7";
      name = "qos";
      paper_artifact = "cited eval: QoS load balancing quality vs NE bound";
      run = E07_qos.run;
    };
    {
      id = "E8";
      name = "conit-scale";
      paper_artifact = "Section 5 scalability-in-conits claim";
      run = E08_conit_scale.run;
    };
    {
      id = "E9";
      name = "models";
      paper_artifact = "Section 4.2 model emulation table";
      run = E09_models.run;
    };
    {
      id = "E10";
      name = "spectrum";
      paper_artifact = "Figure 1 / Section 1 consistency-performance continuum";
      run = E10_spectrum.run;
    };
    {
      id = "E11";
      name = "ablate-budget";
      paper_artifact = "ablation: NE budget allocation policies";
      run = E11_budget.run;
    };
    {
      id = "E12";
      name = "ablate-commit";
      paper_artifact = "ablation: stability vs primary commitment";
      run = E12_commit.run;
    };
    {
      id = "E13";
      name = "replica-scale";
      paper_artifact = "scalability with replicas (Section 1 motivation)";
      run = E13_replica_scale.run;
    };
    {
      id = "E14";
      name = "truncation";
      paper_artifact = "extension: log truncation & snapshot catch-up";
      run = E14_truncation.run;
    };
    {
      id = "E15";
      name = "push-pull";
      paper_artifact = "extension: push vs pull NE enforcement crossover";
      run = E15_push_pull.run;
    };
    {
      id = "E16";
      name = "vworld";
      paper_artifact = "Section 4.1 games: focus/nimbus differentiated QoS";
      run = E16_vworld.run;
    };
    {
      id = "E17";
      name = "wan";
      paper_artifact = "extension: heterogeneous WAN visibility by cluster distance";
      run = E17_wan.run;
    };
    {
      id = "E18";
      name = "editor";
      paper_artifact = "Section 4.1 shared editor: instability bounds";
      run = E18_editor.run;
    };
    {
      id = "E19";
      name = "granularity";
      paper_artifact = "conit granularity: coarse vs per-item definitions";
      run = E19_granularity.run;
    };
    {
      id = "E20";
      name = "availability";
      paper_artifact = "extension: continuous-consistency CAP curve";
      run = E20_availability.run;
    };
    {
      id = "E21";
      name = "gossip";
      paper_artifact = "extension: topology-aware gossip plans";
      run = E21_gossip.run;
    };
    {
      id = "E22";
      name = "scale";
      paper_artifact = "extension: batched anti-entropy at 100-replica scale";
      run = E22_scale.run;
    };
    {
      id = "E23";
      name = "shards";
      paper_artifact =
        "extension: sharded conit space, interest-set partial replication";
      run = E23_shards.run;
    };
  ]

(* Experiments are independent simulations; run them on a domain pool and
   collect outputs back in registry order. *)
let run_all ?(jobs = 1) ?quick () =
  Tact_util.Pool.with_pool ~jobs (fun pool ->
      List.combine all
        (Tact_util.Pool.map_list pool (fun e -> e.run ?quick ()) all))

let find key =
  let k = String.lowercase_ascii key in
  List.find_opt
    (fun e -> String.lowercase_ascii e.id = k || String.lowercase_ascii e.name = k)
    all
