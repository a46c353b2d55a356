type scheduling = Srpt | Edf | Task_aware

type t = {
  num_queues : int;
  arb_period : float;
  early_pruning : bool;
  delegation : bool;
  delegation_period : float;
  local_only : bool;
  use_probes : bool;
  use_ref_rate : bool;
  scheduling : scheduling;
  rto_low : float;
  ctrl_loss_prob : float;
  state_expiry_rounds : int;
  queue_limit_pkts : int;
}

let default =
  {
    num_queues = 8;
    arb_period = 0.0003;
    early_pruning = true;
    delegation = true;
    delegation_period = 0.0009;
    local_only = false;
    use_probes = true;
    use_ref_rate = true;
    scheduling = Srpt;
    rto_low = 0.200;
    ctrl_loss_prob = 0.;
    state_expiry_rounds = 20;
    queue_limit_pkts = 500;
  }

let prune_top_k = 2
let rto_top = 0.010
let ctrl_proc_delay = 0.00001

let switch_survey =
  [
    ("BCM56820", "Broadcom", 10, true);
    ("G8264", "IBM", 8, true);
    ("7050S", "Arista", 7, true);
    ("EX3300", "Juniper", 5, false);
    ("S4810", "Dell", 3, true);
  ]
